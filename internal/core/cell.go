package core

import (
	"fmt"

	"github.com/vanlan/vifi/internal/backplane"
	"github.com/vanlan/vifi/internal/mac"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
)

// CellOptions parameterizes a full ViFi deployment.
type CellOptions struct {
	Protocol  Config
	Radio     radio.Params
	Backplane backplane.Config
	// LinkFactory overrides the channel's default independent fading
	// links; trace-driven experiments install schedule-driven links here.
	LinkFactory radio.LinkFactory
	// MAC overrides the default MAC configuration when non-zero.
	MAC mac.Config
	// Events receives protocol probe events (may be nil).
	Events EventFunc
}

// DefaultCellOptions returns a deployment with the paper's settings.
func DefaultCellOptions() CellOptions {
	return CellOptions{
		Protocol:  DefaultConfig(),
		Radio:     radio.DefaultParams(),
		Backplane: backplane.DefaultConfig(),
	}
}

// Cell is one deployed ViFi cell: a shared radio channel, basestations on
// a backplane with an Internet gateway, and one or more vehicles.
type Cell struct {
	K         *sim.Kernel
	Channel   *radio.Channel
	Backplane *backplane.Net
	Gateway   *Gateway
	BSes      []*Node
	// Vehicle is the first (often only) vehicle; Vehicles carries the full
	// fleet when the cell was built with NewFleetCell.
	Vehicle  *Node
	Vehicles []*Node

	// Gateways lists every gateway (one per district for districted
	// cells; [Gateway] otherwise). VehDistrict maps fleet slots to their
	// district (nil when there is only one).
	Gateways    []*Gateway
	VehDistrict []int

	// Shard-cell bookkeeping (nil/unset outside NewDistrictShardCell):
	// BSLocal/VehLocal mark which global indexes own a full protocol
	// stack on this shard — the rest are position-only ghosts, and their
	// BSes/Vehicles entries are nil. BSRadioIDs/VehRadioIDs carry the
	// channel NodeID of every node, ghost or not, so fault injection can
	// address radios it does not own a Node for.
	BSLocal     []bool
	VehLocal    []bool
	BSRadioIDs  []radio.NodeID
	VehRadioIDs []radio.NodeID
}

// GatewayFor returns the gateway serving fleet slot i.
func (c *Cell) GatewayFor(i int) *Gateway {
	if c.VehDistrict == nil {
		return c.Gateway
	}
	return c.Gateways[c.VehDistrict[i]]
}

// LocalBS reports whether basestation i has a full protocol stack on
// this cell (always true outside shard cells).
func (c *Cell) LocalBS(i int) bool { return c.BSLocal == nil || c.BSLocal[i] }

// LocalVehicle reports whether fleet slot i has a full protocol stack on
// this cell (always true outside shard cells).
func (c *Cell) LocalVehicle(i int) bool { return c.VehLocal == nil || c.VehLocal[i] }

// StartRadioShards enables halo-band stripe-sharded delivery on the
// cell's channel — the single-kernel sharding mode for un-districted
// cities whose stripes share radio edges, complementing the multi-kernel
// NewDistrictShardCell partition. Returns the effective lane count (1
// when the channel keeps the serial path). The caller must
// StopRadioShards before dropping the cell.
func (c *Cell) StartRadioShards(lanes int) int { return c.Channel.StartShards(lanes) }

// StopRadioShards tears halo-band sharding down (no-op when inactive).
func (c *Cell) StopRadioShards() { c.Channel.StopShards() }

// RadioLaneCounts reports how many basestations and fleet slots each
// delivery lane currently owns (by live stripe ownership of their
// radios). Zero-length results on an unsharded channel.
func (c *Cell) RadioLaneCounts() (bs, veh []int) {
	lanes := c.Channel.ShardLanes()
	if lanes == 0 {
		return nil, nil
	}
	bs, veh = make([]int, lanes), make([]int, lanes)
	for _, id := range c.BSRadioIDs {
		bs[c.Channel.LaneOf(id)]++
	}
	for _, id := range c.VehRadioIDs {
		veh[c.Channel.LaneOf(id)]++
	}
	return bs, veh
}

// newCellBase wires the shared substrate: channel, backplane, gateway and
// basestations (addresses 0..len(bsMovers)-1, in order).
func newCellBase(k *sim.Kernel, opts CellOptions, bsMovers []mobility.Mover) *Cell {
	if len(bsMovers) == 0 {
		panic("core: a cell needs at least one basestation")
	}
	ch := radio.NewChannel(k, opts.Radio, opts.LinkFactory)
	bp := backplane.New(k, opts.Backplane)
	gw := NewGateway(k, bp, opts.Events)

	c := &Cell{K: k, Channel: ch, Backplane: bp, Gateway: gw, Gateways: []*Gateway{gw}}
	for i, mv := range bsMovers {
		m := mac.NewWithConfig(k, ch, fmt.Sprintf("bs%d", i), mv, opts.MAC)
		n := newNode(k, opts.Protocol, m, bp, gw.Addr(), false, opts.Events)
		c.BSes = append(c.BSes, n)
		c.BSRadioIDs = append(c.BSRadioIDs, m.ID())
	}
	return c
}

// NewCell builds and starts a deployment. Basestations are attached first
// (addresses 0..len(bsMovers)-1), the vehicle last. All nodes begin
// beaconing immediately; anchor selection settles after roughly one
// probability window.
func NewCell(k *sim.Kernel, opts CellOptions, bsMovers []mobility.Mover, vehMover mobility.Mover) *Cell {
	c := newCellBase(k, opts, bsMovers)
	// The single vehicle keeps its historical stream labels ("mac","veh"),
	// so fleet support cannot disturb existing seeded experiments.
	vm := mac.NewWithConfig(k, c.Channel, "veh", vehMover, opts.MAC)
	c.Vehicle = newNode(k, opts.Protocol, vm, nil, c.Gateway.Addr(), true, opts.Events)
	c.Vehicles = []*Node{c.Vehicle}
	c.VehRadioIDs = []radio.NodeID{vm.ID()}
	return c
}

// NewFleetCell builds a deployment with a fleet of vehicles sharing one
// channel: basestations get addresses 0..len(bsMovers)-1 and vehicles
// len(bsMovers)..len(bsMovers)+len(vehMovers)-1, in order. Every protocol
// structure is per-vehicle already (basestations track designations and
// salvage state per vehicle address, the gateway maps each vehicle to its
// anchor), so the fleet contends for the medium like any dense 802.11
// deployment while each vehicle runs its own anchor/auxiliary protocol.
func NewFleetCell(k *sim.Kernel, opts CellOptions, bsMovers, vehMovers []mobility.Mover) *Cell {
	if len(vehMovers) == 0 {
		panic("core: a fleet cell needs at least one vehicle")
	}
	c := newCellBase(k, opts, bsMovers)
	for i, mv := range vehMovers {
		vm := mac.NewWithConfig(k, c.Channel, fmt.Sprintf("veh%d", i), mv, opts.MAC)
		c.Vehicles = append(c.Vehicles, newNode(k, opts.Protocol, vm, nil, c.Gateway.Addr(), true, opts.Events))
		c.VehRadioIDs = append(c.VehRadioIDs, vm.ID())
	}
	c.Vehicle = c.Vehicles[0]
	return c
}

// NewDistrictFleetCell builds a fleet deployment split into radio-
// isolated districts: one gateway per district (addresses GatewayAddr+d),
// every basestation and vehicle wired to its own district's gateway.
// Attachment order — and therefore every channel NodeID and RNG stream
// label — matches NewFleetCell exactly: basestations in global index
// order, then vehicles in global index order; only the gatewayAddr each
// node registers with differs. districts must be ≥ 1; with districts=1
// the cell is behaviorally identical to NewFleetCell.
func NewDistrictFleetCell(k *sim.Kernel, opts CellOptions, bsMovers, vehMovers []mobility.Mover, bsDistrict, vehDistrict []int, districts int) *Cell {
	if len(bsMovers) == 0 {
		panic("core: a cell needs at least one basestation")
	}
	if len(vehMovers) == 0 {
		panic("core: a fleet cell needs at least one vehicle")
	}
	ch := radio.NewChannel(k, opts.Radio, opts.LinkFactory)
	bp := backplane.New(k, opts.Backplane)
	c := &Cell{K: k, Channel: ch, Backplane: bp, VehDistrict: append([]int(nil), vehDistrict...)}
	for d := 0; d < districts; d++ {
		c.Gateways = append(c.Gateways, NewGatewayAt(k, bp, GatewayAddr+uint16(d), opts.Events))
	}
	c.Gateway = c.Gateways[0]
	for i, mv := range bsMovers {
		m := mac.NewWithConfig(k, ch, fmt.Sprintf("bs%d", i), mv, opts.MAC)
		gw := c.Gateways[bsDistrict[i]]
		c.BSes = append(c.BSes, newNode(k, opts.Protocol, m, bp, gw.Addr(), false, opts.Events))
		c.BSRadioIDs = append(c.BSRadioIDs, m.ID())
	}
	for i, mv := range vehMovers {
		vm := mac.NewWithConfig(k, ch, fmt.Sprintf("veh%d", i), mv, opts.MAC)
		gw := c.Gateways[vehDistrict[i]]
		c.Vehicles = append(c.Vehicles, newNode(k, opts.Protocol, vm, nil, gw.Addr(), true, opts.Events))
		c.VehRadioIDs = append(c.VehRadioIDs, vm.ID())
	}
	c.Vehicle = c.Vehicles[0]
	return c
}

// NewDistrictShardCell builds shard `shard` of a districted deployment:
// nodes whose district maps to this shard (districtShard) get full
// protocol stacks, everyone else attaches to the channel as a
// position-only ghost — same name, same mover, nil receiver — so channel
// NodeIDs, RNG stream labels and spatial-grid state are byte-identical
// to the serial cell at any shard count. Ghosts never transmit, never
// receive and hold no protocol state; with districts separated by more
// than the radio conflict reach they exchange no radio interaction with
// local nodes either, which is what makes the partition exact. Foreign
// backplane addresses (gateways and basestation ports) are registered as
// remotes pointing at their owning shard, so any cross-shard backplane
// send flows through the coupler instead of being dropped as unknown.
func NewDistrictShardCell(k *sim.Kernel, opts CellOptions, bsMovers, vehMovers []mobility.Mover, bsDistrict, vehDistrict []int, districts int, districtShard []int, shard int) *Cell {
	ch := radio.NewChannel(k, opts.Radio, opts.LinkFactory)
	bp := backplane.New(k, opts.Backplane)
	c := &Cell{
		K: k, Channel: ch, Backplane: bp,
		VehDistrict: append([]int(nil), vehDistrict...),
		BSLocal:     make([]bool, len(bsMovers)),
		VehLocal:    make([]bool, len(vehMovers)),
	}
	for d := 0; d < districts; d++ {
		addr := GatewayAddr + uint16(d)
		if districtShard[d] == shard {
			c.Gateways = append(c.Gateways, NewGatewayAt(k, bp, addr, opts.Events))
		} else {
			bp.AttachRemote(addr, districtShard[d])
			c.Gateways = append(c.Gateways, nil)
		}
	}
	for d := 0; d < districts; d++ {
		if c.Gateways[d] != nil {
			c.Gateway = c.Gateways[d]
			break
		}
	}
	for i, mv := range bsMovers {
		if districtShard[bsDistrict[i]] == shard {
			m := mac.NewWithConfig(k, ch, fmt.Sprintf("bs%d", i), mv, opts.MAC)
			gw := c.Gateways[bsDistrict[i]]
			c.BSes = append(c.BSes, newNode(k, opts.Protocol, m, bp, gw.Addr(), false, opts.Events))
			c.BSRadioIDs = append(c.BSRadioIDs, m.ID())
			c.BSLocal[i] = true
		} else {
			id := ch.Attach(fmt.Sprintf("bs%d", i), mv, nil)
			bp.AttachRemote(uint16(id), districtShard[bsDistrict[i]])
			c.BSes = append(c.BSes, nil)
			c.BSRadioIDs = append(c.BSRadioIDs, id)
		}
	}
	for i, mv := range vehMovers {
		if districtShard[vehDistrict[i]] == shard {
			vm := mac.NewWithConfig(k, ch, fmt.Sprintf("veh%d", i), mv, opts.MAC)
			gw := c.Gateways[vehDistrict[i]]
			c.Vehicles = append(c.Vehicles, newNode(k, opts.Protocol, vm, nil, gw.Addr(), true, opts.Events))
			c.VehRadioIDs = append(c.VehRadioIDs, vm.ID())
			c.VehLocal[i] = true
		} else {
			id := ch.Attach(fmt.Sprintf("veh%d", i), mv, nil)
			c.Vehicles = append(c.Vehicles, nil)
			c.VehRadioIDs = append(c.VehRadioIDs, id)
		}
	}
	for _, v := range c.Vehicles {
		if v != nil {
			c.Vehicle = v
			break
		}
	}
	return c
}

// HookVehicle installs per-vehicle application delivery callbacks for
// fleet slot i: down fires for payloads delivered at the vehicle, up
// fires at the gateway for deduplicated upstream payloads originating at
// this vehicle. Application drivers (internal/workload) use this to
// multiplex one session per vehicle over the shared channel/backplane.
func (c *Cell) HookVehicle(i int, down, up DeliverFunc) {
	v := c.Vehicles[i]
	v.SetDeliver(down)
	c.GatewayFor(i).SetVehicleDeliver(v.Addr(), up)
}

// NewVanLANCell builds a cell over the VanLAN campus: its eleven
// basestations and the shuttle loop.
func NewVanLANCell(k *sim.Kernel, opts CellOptions) *Cell {
	v := mobility.NewVanLAN()
	movers := make([]mobility.Mover, len(v.BSes))
	for i, p := range v.BSes {
		movers[i] = mobility.Fixed(p)
	}
	return NewCell(k, opts, movers, &mobility.RouteMover{Route: v.Route})
}
