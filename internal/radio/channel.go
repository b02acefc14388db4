package radio

import (
	"fmt"
	"math"
	"time"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// NodeID identifies a radio attached to a Channel. IDs are small dense
// integers assigned by Attach in attachment order.
type NodeID int

// RxInfo carries per-frame PHY metadata delivered with a received frame,
// mirroring what the paper's modified driver logs (§2.1).
type RxInfo struct {
	From NodeID
	At   time.Duration // reception completion time
	RSSI float64       // synthetic RSSI in dBm
	Dist float64       // true distance at transmit time (diagnostic)
}

// Receiver consumes frames delivered by the channel.
type Receiver interface {
	// RadioReceive is called once per correctly decoded frame. The payload
	// is a pooled buffer owned by the channel: it is valid only for the
	// duration of the call, and receivers must copy anything they retain
	// (frame.Unmarshal already copies, so decode-and-dispatch is safe).
	RadioReceive(payload []byte, info RxInfo)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(payload []byte, info RxInfo)

// RadioReceive implements Receiver.
func (f ReceiverFunc) RadioReceive(payload []byte, info RxInfo) { f(payload, info) }

// LinkFactory builds the LinkModel for a directed (from, to) pair. The
// default factory creates independent FadingLinks; trace-driven
// experiments install ScheduleLinks instead. Factories must be pure
// functions of (from, to): the channel creates each link on the pair's
// first contact, and which pair is contacted first depends on the
// delivery path and the traffic.
type LinkFactory func(from, to NodeID) LinkModel

// reception is one in-flight frame at one receiver. It carries its own
// damage state so that collisions can void it without racing against
// receptions that complete at the same instant. Records are pooled (on the
// channel, or on a delivery lane) and double as the scheduled delivery
// event (sim.Handler), so steady-state delivery performs no allocation.
type reception struct {
	ch        *Channel
	dst       *node
	from      NodeID
	rssi      float64
	end       time.Duration
	ok        bool
	scheduled bool   // a delivery event owns (and will free) this record
	buf       []byte // pooled payload copy; nil when the frame was lost
	info      RxInfo
	next      *reception // free-list link
}

// OnEvent completes the reception: it releases the record (and the
// receiver lock it holds) and, if the frame survived, hands the payload
// to the receiver before recycling the buffer.
func (r *reception) OnEvent() {
	c, d := r.ch, r.dst
	ok, buf, info := r.ok, r.buf, r.info
	if d.cur == r {
		d.cur = nil
	}
	recycle(&c.freeRx, r)
	if !ok {
		if buf != nil {
			c.bufs.Put(buf)
		}
		return // destroyed by a collision or half-duplex turnaround
	}
	c.stats.Deliveries++
	if d.recv != nil {
		d.recv.RadioReceive(buf, info)
	}
	c.bufs.Put(buf)
}

// recycle clears a reception record and pushes it onto a free list.
func recycle(free **reception, r *reception) {
	r.dst = nil
	r.buf = nil
	r.scheduled = false
	r.next = *free
	*free = r
}

// nbrEntry is one cached broadcast candidate. On the full sweep every
// candidate is contacted by every broadcast, so its link state is
// resolved when the entry is cached. On the indexed path the candidate
// is a node bucketed in the transmitter's 3×3 grid neighborhood, and its
// link state is resolved on the first in-cutoff contact and memoized: a
// 3×3 neighborhood holds several times more candidates than the cutoff
// disc, and materializing links for the fringe would multiply the link
// table for pairs that may never exchange a frame. (The sharded path
// resolves links at cache build, because worker lanes must never touch
// the link map — see candidates.)
//
// owner is the delivery lane owning this candidate (the stripe of its
// bucket cell column), filled only by the sharded path; the serial path
// leaves it zero and never reads it.
type nbrEntry struct {
	dst   *node
	ls    *linkState
	owner uint8
}

// node is the channel's view of one attached radio.
type node struct {
	id      NodeID
	name    string
	mover   mobility.Mover
	recv    Receiver
	txUntil time.Duration // transmitting until (half duplex)
	cur     *reception    // latest reception locking this receiver
	down    bool          // radio muted by fault injection (SetDown)

	// nbr caches the node's broadcast candidates (see candidates). On
	// the full sweep it lists every other attached node in ID order and
	// grows as radios attach. On the indexed path it holds the last grid
	// walk, valid while the grid version and the node's query cell are
	// unchanged — then a fresh walk would return the exact same nodes in
	// the same order, so reuse is byte-identical. nbrOK marks a valid
	// grid walk; the sweep never sets it, so the first indexed broadcast
	// after the threshold is crossed rebuilds the list from the grid.
	nbr     []nbrEntry
	nbrVer  uint64
	nbrCell uint64
	nbrOK   bool
}

// Stats aggregates channel-level counters, used by the efficiency
// experiments (Fig 12) and by tests.
type Stats struct {
	Transmissions int // frames put on the air
	Deliveries    int // frame receptions (per receiver)
	Collisions    int // receptions destroyed by overlap
	HalfDuplex    int // receptions missed because receiver was sending
	ChannelLosses int // receptions lost to the link model
}

// linkState bundles the model and the private randomness of one directed
// link. The RNG streams are created once and advanced across the whole
// simulation; recreating them per frame would freeze the coin flips.
// reach caches the model's advertised Ranged cutoff (+Inf when the model
// has none); only the indexed path consults it.
type linkState struct {
	model LinkModel
	loss  *sim.RNG
	noise *sim.RNG
	reach float64
}

// txEnd is the always-scheduled end-of-airtime event for one transmission:
// it keeps the active-transmitter list exact and invokes the sender's
// txDone handler. Records are pooled.
type txEnd struct {
	ch     *Channel
	src    *node
	txDone sim.Handler
	next   *txEnd
}

func (t *txEnd) OnEvent() {
	c, src, done := t.ch, t.src, t.txDone
	t.txDone = nil
	t.src = nil
	t.next = c.freeTx
	c.freeTx = t
	// Swap-delete the finished transmitter. The list is tiny (frames on
	// the air right now) and its order never influences results: Busy
	// does no RNG draws and any in-range hit returns true.
	for i, n := range c.activeTx {
		if n == src {
			last := len(c.activeTx) - 1
			c.activeTx[i] = c.activeTx[last]
			c.activeTx[last] = nil
			c.activeTx = c.activeTx[:last]
			break
		}
	}
	if done != nil {
		done.OnEvent()
	}
}

// DefaultIndexThreshold is the attached-node count at which a channel
// switches to the spatially indexed hot path, unless
// Params.IndexThresholdNodes overrides it. Every run at or above the
// threshold skips out-of-range receivers entirely (their per-link streams
// advance less — safe because streams are private per link and the
// skipped draws are guaranteed losses); every run below it keeps the
// historical full sweep, so seeded sub-threshold experiments are
// byte-identical to prior versions.
const DefaultIndexThreshold = 128

// Channel is the shared broadcast medium. All attached nodes hear all
// transmissions subject to the per-link LinkModel, half-duplex operation
// and collision rules. The channel is single-threaded on the simulation
// kernel.
type Channel struct {
	K       *sim.Kernel
	P       Params
	factory LinkFactory
	nodes   []*node
	// links is the directed link table, keyed by pairKey and populated
	// on each pair's first contact. Link RNG streams are label-derived
	// (see newLink), so when a link is created never moves a coin flip.
	links  map[uint64]*linkState
	bufs   frame.BufferPool
	freeRx *reception
	freeTx *txEnd
	// activeTx lists the transmitters currently on the air, maintained by
	// Broadcast and txEnd.OnEvent, so carrier sense scans frames in
	// flight instead of every attached node.
	activeTx []*node
	grid     *grid
	cutoff   float64 // cached P.CutoffM()
	// revalAt is the timestamp of the earliest pending revalidation event;
	// revalPending is false when none is scheduled. Revalidation is
	// event-driven (scheduled at the grid's exact drift deadlines) rather
	// than piggybacked on Broadcast, so bucket state at any instant is a
	// pure function of node positions and speed bounds — never of when the
	// local traffic happened to query the index. Sharded runs depend on
	// that: every shard sees identical bucket state at identical times.
	revalAt      time.Duration
	revalPending bool
	stats        Stats
	// shard, when non-nil, fans each indexed broadcast's delivery
	// computations out across stripe-owned worker lanes (see shard.go).
	// Byte-identity with serial holds by construction: one kernel, one
	// event order, same per-link streams, commit in candidate order.
	shard *channelShard
}

// NewChannel creates a channel over the kernel with the given parameters.
// If factory is nil, independent FadingLinks are created per directed pair,
// each seeded from the kernel's labeled RNG streams.
func NewChannel(k *sim.Kernel, p Params, factory LinkFactory) *Channel {
	c := &Channel{K: k, P: p, links: make(map[uint64]*linkState)}
	if factory == nil {
		// The fading-derived cutoff (CutoffM) describes exactly the links
		// this factory builds, so the indexed path may rely on it.
		c.cutoff = p.CutoffM()
		factory = func(from, to NodeID) LinkModel {
			return NewFadingLink(p, k.RNG("link", fmt.Sprint(from), fmt.Sprint(to)))
		}
	} else {
		// A custom factory may install models the fading parameters say
		// nothing about (FixedLink, ScheduleLink, trace replays), so the
		// indexed cutoff applies only when the caller sets an explicit
		// MaxRangeM; otherwise the channel keeps the full sweep at any
		// population rather than silently dropping long-range deliveries.
		c.cutoff = p.MaxRangeM
	}
	c.factory = factory
	return c
}

// indexThreshold returns the node count at which the indexed path takes
// over.
func (c *Channel) indexThreshold() int {
	if c.P.IndexThresholdNodes > 0 {
		return c.P.IndexThresholdNodes
	}
	return DefaultIndexThreshold
}

// indexed reports whether Broadcast uses the spatial grid. It requires a
// finite cutoff; degenerate Params (no fading falloff, no MaxRangeM)
// keep the full sweep at any size.
func (c *Channel) indexed() bool {
	return len(c.nodes) >= c.indexThreshold() && c.cutoff > 0
}

// newLink builds the state of one directed link. Each link's RNG streams
// are derived from stable labels, so a link created at any contact
// yields exactly the same coin flips.
func (c *Channel) newLink(from, to NodeID) *linkState {
	ls := &linkState{
		model: c.factory(from, to),
		loss:  c.K.RNG("loss", fmt.Sprint(from), fmt.Sprint(to)),
		noise: c.K.RNG("rssi", fmt.Sprint(from), fmt.Sprint(to)),
		reach: math.Inf(1),
	}
	if r, ok := ls.model.(Ranged); ok {
		if v := r.MaxRangeM(); v > 0 {
			ls.reach = v
		}
	}
	return ls
}

// pairKey packs a directed pair into the link-table key.
func pairKey(from, to NodeID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// Attach registers a radio with the channel and returns its NodeID. No
// link is built here: each directed link is created on its first contact
// (see link), so a large fleet never pays O(N²) link memory or a
// quadratic attach cost.
func (c *Channel) Attach(name string, mover mobility.Mover, recv Receiver) NodeID {
	id := NodeID(len(c.nodes))
	c.nodes = append(c.nodes, &node{id: id, name: name, mover: mover, recv: recv})
	if c.grid != nil {
		c.grid.insert(id, mover, c.K.Now())
		c.scheduleReval()
	} else if c.indexed() {
		c.buildGrid()
	}
	return id
}

// SetReceiver replaces the receiver of an attached node (used when protocol
// stacks are wired up after attachment).
func (c *Channel) SetReceiver(id NodeID, recv Receiver) { c.nodes[id].recv = recv }

// NodeName returns the name given at attachment.
func (c *Channel) NodeName(id NodeID) string { return c.nodes[id].name }

// SetDown mutes a node's radio: its broadcasts put nothing on the air
// (though airtime still elapses and txDone still fires, so MAC gates keep
// advancing), it receives nothing, and it senses an idle medium. A frame
// it is currently receiving is voided. Stream stability: muting touches
// no RNG — a down receiver is skipped before any loss/noise draw on its
// (private, per-directed-pair) streams, and a down transmitter draws
// nothing for anyone — so every live pair's coin flips are byte-identical
// with or without a down bystander. Frames already in flight from this
// node complete delivery (the crash takes effect at the next frame
// boundary, a deliberate simplification).
func (c *Channel) SetDown(id NodeID) {
	n := c.nodes[id]
	n.down = true
	if n.cur != nil && n.cur.end > c.K.Now() && n.cur.ok {
		n.cur.ok = false
	}
}

// SetUp restores a radio muted by SetDown.
func (c *Channel) SetUp(id NodeID) { c.nodes[id].down = false }

// Down reports whether the node's radio is muted.
func (c *Channel) Down(id NodeID) bool { return c.nodes[id].down }

// NumNodes returns the number of attached radios.
func (c *Channel) NumNodes() int { return len(c.nodes) }

// Stats returns a copy of the channel counters. On a sharded channel the
// per-lane counters (collision, half-duplex and channel-loss decisions
// run on worker lanes) are folded in, so the totals match a serial run
// exactly at any point between broadcasts.
func (c *Channel) Stats() Stats {
	st := c.stats
	if c.shard != nil {
		for _, ln := range c.shard.lanes {
			st.HalfDuplex += ln.stats.HalfDuplex
			st.Collisions += ln.stats.Collisions
			st.ChannelLosses += ln.stats.ChannelLosses
		}
	}
	return st
}

// Buffers exposes the channel's buffer pool so the MAC layer can marshal
// frames into recycled buffers.
func (c *Channel) Buffers() *frame.BufferPool { return &c.bufs }

// Position returns a node's current position.
func (c *Channel) Position(id NodeID) mobility.Point {
	return c.nodes[id].mover.Position(c.K.Now())
}

// link returns the state for the directed pair, creating it on first
// contact.
func (c *Channel) link(from, to NodeID) *linkState {
	key := pairKey(from, to)
	ls := c.links[key]
	if ls == nil {
		ls = c.newLink(from, to)
		c.links[key] = ls
	}
	return ls
}

// Busy reports whether the medium is sensed busy at the node: either the
// node itself is transmitting, or some in-flight transmission originates
// within carrier-sense range. Only the active-transmitter list is
// scanned — cost follows frames on the air, never the attached node
// count. An entry whose airtime ended exactly now (its txEnd event has
// not fired yet) is skipped by the txUntil check, matching the full
// sweep's semantics exactly.
func (c *Channel) Busy(id NodeID) bool {
	now := c.K.Now()
	me := c.nodes[id]
	if me.down {
		return false // a muted radio senses nothing
	}
	if me.txUntil > now {
		return true
	}
	if len(c.activeTx) == 0 {
		return false // nobody is on the air: skip the position checks
	}
	pos := me.mover.Position(now)
	for _, n := range c.activeTx {
		if n.id == id || n.txUntil <= now {
			continue
		}
		if n.mover.Position(now).Dist(pos) <= c.P.SenseRangeM {
			return true
		}
	}
	return false
}

// Transmitting reports whether the node is currently on the air.
func (c *Channel) Transmitting(id NodeID) bool {
	return c.nodes[id].txUntil > c.K.Now()
}

// Broadcast puts a frame on the air from the given node. Every other node
// receives it with its link-model probability, subject to half-duplex and
// collision rules. Returns the frame's airtime. If txDone is non-nil its
// OnEvent is invoked when the frame leaves the air (the MAC uses this to
// release its one-outstanding-frame gate); the channel always schedules
// the end-of-airtime event so virtual time advances even when every
// reception is lost.
//
// The payload is copied (into pooled buffers) once per successful
// delivery; the caller keeps ownership of the passed slice and may reuse
// it as soon as Broadcast returns.
func (c *Channel) Broadcast(from NodeID, payload []byte, txDone sim.Handler) time.Duration {
	now := c.K.Now()
	src := c.nodes[from]
	airtime := c.P.Airtime(len(payload))
	end := now + airtime
	if src.txUntil > now {
		// Model guard: the MAC enforces one outstanding frame, so this is
		// a programming error in the caller.
		panic(fmt.Sprintf("radio: node %d (%s) transmit while transmitting", from, src.name))
	}
	if src.down {
		// Muted transmitter: nothing reaches the air — no deliveries, no
		// carrier occupancy, no transmission counted — but the airtime
		// still elapses for the caller and txDone still fires, so the
		// MAC's one-outstanding-frame gate advances normally. No RNG is
		// touched, keeping every live pair's streams byte-identical.
		c.endTx(src, end, txDone)
		return airtime
	}
	src.txUntil = end
	c.activeTx = append(c.activeTx, src)
	c.stats.Transmissions++

	// A node that begins transmitting loses any frame it was receiving.
	if src.cur != nil && src.cur.end > now && src.cur.ok {
		src.cur.ok = false
		c.stats.HalfDuplex++
	}

	srcPos := src.mover.Position(now)
	indexed := c.candidates(src, srcPos, now)
	if c.shard != nil {
		c.broadcastSharded(src, srcPos, payload, now, end)
	} else {
		for i := range src.nbr {
			nb := &src.nbr[i]
			dist := srcPos.Dist(nb.dst.mover.Position(now))
			if indexed && !c.inReach(src, nb, dist) {
				continue
			}
			if rx := c.decide(&c.stats, &c.freeRx, src, nb.dst, nb.ls, dist, now, end); rx != nil {
				c.schedule(rx, payload)
			}
		}
	}
	// Schedule the tx-done notification after the delivery events so that
	// receptions completing exactly at end are processed before the sender
	// reuses the medium (FIFO among equal timestamps).
	c.endTx(src, end, txDone)
	return airtime
}

// endTx schedules the end-of-airtime event of src's transmission.
func (c *Channel) endTx(src *node, end time.Duration, txDone sim.Handler) {
	te := c.freeTx
	if te != nil {
		c.freeTx = te.next
		te.next = nil
	} else {
		te = &txEnd{ch: c}
	}
	te.src = src
	te.txDone = txDone
	c.K.AtHandler(end, te)
}

// candidates brings src's broadcast candidate cache (node.nbr) up to date
// and reports whether the channel is on the indexed path. The path only
// ever moves from the full sweep to the indexed one (nodes attach but
// never detach), so one cache serves both.
//
// Full sweep: every other attached node, in ID order, with its link
// resolved. A built cache covers IDs [0, len(nbr)] minus src — src is
// attached before its first broadcast — so only radios attached since
// are appended.
//
// Indexed: the 3×3 grid neighborhood in walk order, reused while the
// grid version and src's query cell hold still (stationary nodes: until
// the next bucket change anywhere; movers: also bounded by their own
// cell crossings), so the steady-state broadcast does no map lookups at
// all. Receivers beyond the channel cutoff — or beyond the link model's
// own advertised reach — are then skipped entirely (see inReach), so
// neither their loss/noise streams nor any collision state is touched.
// Per-link streams make that safe: the skipped draws correspond to
// guaranteed losses, and every other link's flips are unchanged. On a
// sharded channel each entry also records its owning lane, and links
// resolve here — on the coordinator, at cache build — because lanes must
// never touch the link map. That materializes fringe links the serial
// path would skip, which is invisible to results: untouched links draw
// nothing.
func (c *Channel) candidates(src *node, srcPos mobility.Point, now time.Duration) bool {
	if !c.indexed() {
		next := NodeID(len(src.nbr))
		if src.id <= next {
			next++
		}
		for ; int(next) < len(c.nodes); next++ {
			if next != src.id {
				src.nbr = append(src.nbr, nbrEntry{dst: c.nodes[next], ls: c.link(src.id, next)})
			}
		}
		return false
	}
	g := c.ensureGrid(now)
	cell := g.cellKey(srcPos)
	if src.nbrOK && src.nbrVer == g.version && src.nbrCell == cell {
		return true
	}
	src.nbr = src.nbr[:0]
	sh := c.shard
	g.neighborhoodCells(srcPos, func(id NodeID, cellX int32) {
		if id == src.id {
			return
		}
		nb := nbrEntry{dst: c.nodes[id]}
		if sh != nil {
			nb.ls = c.link(src.id, id)
			nb.owner = uint8(laneOf(cellX, len(sh.lanes)))
		}
		src.nbr = append(src.nbr, nb)
	})
	src.nbrOK, src.nbrVer, src.nbrCell = true, g.version, cell
	return true
}

// inReach reports whether an indexed candidate at dist lies within both
// the channel cutoff and its link's advertised reach, resolving the link
// on the first in-cutoff contact.
func (c *Channel) inReach(src *node, nb *nbrEntry, dist float64) bool {
	if dist > c.cutoff {
		return false
	}
	if nb.ls == nil {
		nb.ls = c.link(src.id, nb.dst.id)
	}
	return dist <= nb.ls.reach
}

// Indexed reports whether the channel is running the spatially indexed
// broadcast path (and therefore maintains the neighbor grid).
func (c *Channel) Indexed() bool { return c.indexed() }

// NeighborIDs appends to buf the IDs of the nodes currently bucketed in
// the 3×3 grid neighborhood of id's position, excluding id itself, and
// returns the extended slice. It is a read-only diagnostic view of the
// index as the last Broadcast left it — it never inserts, rebuckets or
// revalidates, so calling it cannot perturb delivery order. Before the
// first indexed broadcast (or below the index threshold) it falls back
// to every other attached node.
//
// The neighborhood over-approximates radio range: it is the candidate
// set Broadcast would filter by exact distance, not the set of reachable
// nodes. Protocol layers must not filter their own state by it —
// probability estimates legitimately outlive range — which is why only
// instrumentation and tests consume it.
func (c *Channel) NeighborIDs(id NodeID, buf []NodeID) []NodeID {
	g := c.grid
	if !c.indexed() || g == nil {
		for _, n := range c.nodes {
			if n.id != id {
				buf = append(buf, n.id)
			}
		}
		return buf
	}
	pos := c.nodes[id].mover.Position(c.K.Now())
	g.neighborhood(pos, func(nid NodeID) {
		if nid != id {
			buf = append(buf, nid)
		}
	})
	return buf
}

// buildGrid creates the spatial index and buckets every attached node at
// its current position. Called from Attach the moment the channel crosses
// the index threshold, so insertion order is attachment order and bucket
// state never depends on when the first broadcast happens.
func (c *Channel) buildGrid() {
	// Cells are sized by the reception cutoff alone: the grid serves
	// only Broadcast — carrier sense scans the active-transmitter
	// list, never the grid — so folding SenseRangeM in would only
	// inflate the candidate sets.
	g := newGrid(c.cutoff)
	c.grid = g
	now := c.K.Now()
	for _, n := range c.nodes {
		g.insert(n.id, n.mover, now)
	}
	c.scheduleReval()
}

// scheduleReval arranges a kernel event at the grid's earliest drift
// deadline. Revalidation thereby happens at instants that are a pure
// function of positions and speed bounds — identical in every shard of a
// partitioned run — instead of at whatever time the next local broadcast
// queried the index. An event made stale by an earlier deadline (insert
// can lower nextDeadline) reschedules itself without sweeping.
func (c *Channel) scheduleReval() {
	g := c.grid
	if g == nil || g.nextDeadline == never {
		return
	}
	if c.revalPending && c.revalAt <= g.nextDeadline {
		return
	}
	c.revalPending = true
	c.revalAt = g.nextDeadline
	at := g.nextDeadline
	c.K.At(at, func() {
		if c.revalAt == at {
			c.revalPending = false
		}
		g := c.grid
		if g != nil && c.K.Now() >= g.nextDeadline {
			g.revalidate(c.nodes, c.K.Now())
		}
		c.scheduleReval()
	})
}

// ensureGrid returns the spatial index, folding in any nodes attached
// since it was built. Revalidation is not triggered here — it runs on its
// own scheduled deadlines (see scheduleReval).
func (c *Channel) ensureGrid(now time.Duration) *grid {
	g := c.grid
	if g == nil {
		c.buildGrid()
		g = c.grid
	}
	for len(g.nodes) < len(c.nodes) {
		id := NodeID(len(g.nodes))
		g.insert(id, c.nodes[id].mover, now)
		c.scheduleReval()
	}
	return g
}

// decide is the delivery decision for one frame at one receiver, shared
// by every path: the mute and half-duplex gates, the RSSI noise draw,
// collision/capture against the receiver's locking reception, and the
// loss coin flip. It counts into st and takes and recycles reception
// records on *free — the channel's own on the serial paths, a lane's on
// the sharded path — and writes no other state but the link's streams
// and the receiver's. It returns the reception whose delivery event must
// be scheduled (see schedule), or nil when nothing is delivered.
func (c *Channel) decide(st *Stats, free **reception, src, dst *node, ls *linkState, dist float64, now, end time.Duration) *reception {
	if dst.down {
		// Muted receiver: skipped before any draw, so only this directed
		// pair's private streams advance less — a guaranteed loss, same
		// argument as the indexed path's out-of-range skip.
		return nil
	}
	pr := ls.model.ReceiveProb(now, dist)

	// Half duplex: a transmitting receiver hears nothing.
	if dst.txUntil > now {
		if pr > 0 {
			st.HalfDuplex++
		}
		return nil
	}

	rssi := c.P.rssi(dist, ls.noise.NormFloat64()*c.P.RSSINoiseDB)

	// Collision handling: if the destination is locked onto another frame
	// that is still in flight (strictly: ends after now), the stronger
	// frame survives only with a clear capture margin; otherwise both are
	// destroyed. A frame ending exactly now has completed reception and
	// is not collided with.
	if prev := dst.cur; prev != nil && prev.end > now {
		switch {
		case rssi >= prev.rssi+c.P.CaptureDB:
			// New frame captures the receiver; the old one is lost.
			if prev.ok {
				prev.ok = false
				st.Collisions++
			}
		case prev.rssi >= rssi+c.P.CaptureDB:
			// Existing frame survives; the new one is lost.
			st.Collisions++
			return nil
		default:
			// Mutual destruction.
			if prev.ok {
				prev.ok = false
				st.Collisions++
			}
			st.Collisions++
			return nil
		}
	}

	// Channel loss?
	ok := ls.loss.Float64() < pr
	rx := *free
	if rx != nil {
		*free = rx.next
		rx.next = nil
	} else {
		rx = &reception{ch: c}
	}
	rx.dst = dst
	rx.from, rx.rssi, rx.end, rx.ok = src.id, rssi, end, ok
	// The new record locks the receiver. A displaced record no delivery
	// event owns (a lost frame that completed) is recycled here;
	// scheduled records free themselves when they fire.
	if prev := dst.cur; prev != nil && !prev.scheduled {
		recycle(free, prev)
	}
	dst.cur = rx
	if !ok {
		st.ChannelLosses++
		return nil
	}
	rx.info = RxInfo{From: src.id, At: end, RSSI: rssi, Dist: dist}
	return rx
}

// schedule copies the payload of a decided reception into a pooled
// buffer and arms its delivery event at the frame's end.
func (c *Channel) schedule(rx *reception, payload []byte) {
	rx.buf = c.bufs.Get(len(payload))
	copy(rx.buf, payload)
	rx.scheduled = true
	c.K.AtHandler(rx.end, rx)
}
