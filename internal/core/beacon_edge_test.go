package core

import (
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// newBareVehicle builds a minimal vehicle-side Node for driving the
// anchor/aux selection logic directly against a hand-fed probability
// table, without a radio stack underneath.
func newBareVehicle(addr uint16) *Node {
	cfg := DefaultConfig()
	return &Node{
		cfg:        cfg,
		addr:       addr,
		isVehicle:  true,
		probs:      NewProbTable(cfg.ProbAlpha, cfg.ProbStale),
		anchor:     frame.None,
		prevAnchor: frame.None,
	}
}

// TestReportPeerStaleBetweenBeacons pins the in-between-beacons expiry:
// with no observation between two Report calls of the same beacon
// interval, a peer whose estimate crosses the staleness horizon between
// them must vanish from the second report. The old implementation got
// this by rescanning; the incremental table must get it from the expiry
// wheel invalidating the cached report.
func TestReportPeerStaleBetweenBeacons(t *testing.T) {
	const stale = 3 * time.Second
	const self = 5
	pt := NewProbTable(0.5, stale)
	t0 := time.Second
	pt.ObserveLocal(2, self, 0.8, t0) // goes stale first
	pt.ObserveLocal(3, self, 0.6, t0+200*time.Millisecond)

	beacon1 := t0 + stale - 20*time.Millisecond
	if got := len(pt.Report(self, beacon1)); got != 2 {
		t.Fatalf("first beacon report has %d entries, want 2", got)
	}
	// Same interval, 100 ms later: peer 2 is now past the horizon, peer 3
	// is not. Nothing was observed in between, so only the wheel can know.
	beacon2 := beacon1 + 100*time.Millisecond
	rep := pt.Report(self, beacon2)
	if len(rep) != 1 || rep[0].From != 3 {
		t.Fatalf("second beacon report = %v, want only peer 3", rep)
	}
	if peers := pt.FreshLocalPeers(self, beacon2); len(peers) != 1 || peers[0] != 3 {
		t.Fatalf("FreshLocalPeers = %v, want [3]", peers)
	}
}

// TestAuxSetWholeExpiry walks a vehicle through its entire auxiliary set
// (and anchor) expiring at once — the drive-out-of-town case: fresh sets
// drain through the wheel in one query, the anchor is dropped, and the
// aux list comes back empty rather than stale.
func TestAuxSetWholeExpiry(t *testing.T) {
	n := newBareVehicle(0)
	t0 := time.Second
	for peer := uint16(1); peer <= 4; peer++ {
		n.probs.ObserveLocal(peer, n.addr, 0.9, t0)
	}
	n.selectAnchor(t0 + time.Millisecond)
	if n.anchor == frame.None || len(n.auxList) != 3 {
		t.Fatalf("warmup: anchor %d aux %v, want an anchor and 3 auxiliaries", n.anchor, n.auxList)
	}
	// One staleness window later, every estimate has aged out together.
	n.selectAnchor(t0 + n.cfg.ProbStale + 2*time.Millisecond)
	if n.anchor != frame.None {
		t.Fatalf("anchor %d survived whole-set expiry", n.anchor)
	}
	if len(n.auxList) != 0 {
		t.Fatalf("aux list %v survived whole-set expiry", n.auxList)
	}
	if peers := n.probs.FreshLocalPeers(n.addr, t0+n.cfg.ProbStale+2*time.Millisecond); len(peers) != 0 {
		t.Fatalf("fresh peers %v after whole-set expiry", peers)
	}
}

// TestVehPeersExcludedFromCandidates pins the fleet rule at the
// selection layer: a vehicle peer is never anchor nor auxiliary, even
// when it is the loudest peer in the table, for a small and a large
// vehicle address alike.
func TestVehPeersExcludedFromCandidates(t *testing.T) {
	for _, vehAddr := range []uint16{7, 2057} {
		n := newBareVehicle(0)
		t0 := time.Second
		n.probs.ObserveLocal(vehAddr, n.addr, 1.0, t0) // loudest peer is a vehicle
		n.probs.ObserveLocal(3, n.addr, 0.5, t0)
		n.markVehPeer(vehAddr)
		if !n.isVehPeer(vehAddr) || n.isVehPeer(3) {
			t.Fatalf("vehAddr %d: vehicle-peer marking wrong", vehAddr)
		}
		n.selectAnchor(t0 + time.Millisecond)
		if n.anchor != 3 {
			t.Fatalf("vehAddr %d: anchor = %d, want basestation 3", vehAddr, n.anchor)
		}
		if contains(n.auxList, vehAddr) {
			t.Fatalf("vehAddr %d: vehicle in aux list %v", vehAddr, n.auxList)
		}
	}
}

// TestFleetAnchorNeverVehicle pins the PR 3 fleet bug end-to-end: two
// vehicles driving close together hear each other far louder than any
// basestation, and still must anchor on a basestation.
func TestFleetAnchorNeverVehicle(t *testing.T) {
	k := sim.NewKernel(11)
	cell := NewFleetCell(k, DefaultCellOptions(),
		[]mobility.Mover{mobility.Fixed{X: 40}},
		[]mobility.Mover{mobility.Fixed{X: 0}, mobility.Fixed{X: 2}})
	k.RunUntil(4 * time.Second)
	bsAddr := cell.BSes[0].Addr()
	for i, v := range cell.Vehicles {
		if v.Anchor() != bsAddr {
			t.Errorf("vehicle %d anchored on %d, want basestation %d", i, v.Anchor(), bsAddr)
		}
		for _, aux := range v.auxList {
			if v.isVehPeer(aux) {
				t.Errorf("vehicle %d lists vehicle %d as auxiliary", i, aux)
			}
		}
	}
}

// TestIncrementalUpdateAllocFree guards the index maintenance paths: with
// warm sets, refreshing members, expiring whole sets and re-adding them
// must all run allocation-free — wheel records, member lists and the
// cached report recycle their storage.
func TestIncrementalUpdateAllocFree(t *testing.T) {
	const stale = 3 * time.Second
	const self = 0
	pt := NewProbTable(0.5, stale)
	now := time.Second
	warm := func(at time.Duration) {
		for peer := uint16(1); peer <= 16; peer++ {
			pt.ObserveLocal(peer, self, 0.5, at)
			pt.ObserveGossip(self, peer, 0.5, at)
		}
		pt.Report(self, at)
	}
	warm(now)

	// Steady refresh: every beacon interval observes and reports.
	allocs := testing.AllocsPerRun(200, func() {
		now += 100 * time.Millisecond
		warm(now)
		pt.FreshLocalPeers(self, now)
	})
	if allocs != 0 {
		t.Errorf("steady incremental refresh allocates %.1f objects, want 0", allocs)
	}

	// Expiry churn: every iteration lets the whole set age out, drains
	// the wheels, then rebuilds the sets at warm capacity.
	allocs = testing.AllocsPerRun(200, func() {
		now += stale + time.Millisecond
		if len(pt.FreshLocalPeers(self, now)) != 0 {
			t.Fatal("set survived expiry")
		}
		if len(pt.Report(self, now)) != 0 {
			t.Fatal("report survived expiry")
		}
		warm(now)
	})
	if allocs != 0 {
		t.Errorf("expiry/rebuild cycle allocates %.1f objects, want 0", allocs)
	}
}

// TestBatchedReportAllocFree guards the cached-report fast path: beacons
// inside a quiet interval must return the cached entries without touching
// peer state or allocating.
func TestBatchedReportAllocFree(t *testing.T) {
	const self = 0
	pt := NewProbTable(0.5, 3*time.Second)
	now := time.Second
	for peer := uint16(1); peer <= 32; peer++ {
		pt.ObserveLocal(peer, self, 0.5, now)
	}
	first := pt.Report(self, now)
	allocs := testing.AllocsPerRun(1000, func() {
		if len(pt.Report(self, now+time.Millisecond)) != len(first) {
			t.Fatal("cached report changed size")
		}
	})
	if allocs != 0 {
		t.Errorf("cached report path allocates %.1f objects, want 0", allocs)
	}
}
