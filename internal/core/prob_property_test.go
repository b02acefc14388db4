package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/stats"
)

// refProbTable is the pre-optimization map-based ProbTable, kept verbatim
// as the reference model: the incremental implementation must be
// observationally equivalent to it under arbitrary observe/expire/query
// sequences.
type refEntry struct {
	ewma    *stats.EWMA
	gossip  float64
	local   time.Duration
	gossipT time.Duration
	hasG    bool
}

type refProbTable struct {
	alpha float64
	stale time.Duration
	m     map[[2]uint16]*refEntry
}

func newRefProbTable(alpha float64, stale time.Duration) *refProbTable {
	return &refProbTable{alpha: alpha, stale: stale, m: map[[2]uint16]*refEntry{}}
}

func (t *refProbTable) entry(from, to uint16) *refEntry {
	k := [2]uint16{from, to}
	e, ok := t.m[k]
	if !ok {
		e = &refEntry{ewma: stats.NewEWMA(t.alpha), local: -1, gossipT: -1}
		t.m[k] = e
	}
	return e
}

func (t *refProbTable) ObserveLocal(from, to uint16, ratio float64, now time.Duration) {
	e := t.entry(from, to)
	e.ewma.Update(ratio)
	e.local = now
}

func (t *refProbTable) ObserveGossip(from, to uint16, p float64, now time.Duration) {
	e := t.entry(from, to)
	e.gossip = p
	e.gossipT = now
	e.hasG = true
}

func (t *refProbTable) Get(from, to uint16, now time.Duration) float64 {
	if from == to {
		return 1
	}
	e, ok := t.m[[2]uint16{from, to}]
	if !ok {
		return 0
	}
	if e.local >= 0 && now-e.local <= t.stale {
		return e.ewma.Value()
	}
	if e.hasG && now-e.gossipT <= t.stale {
		return e.gossip
	}
	return 0
}

func (t *refProbTable) FreshLocalPeers(self uint16, now time.Duration) []uint16 {
	var out []uint16
	for k, e := range t.m {
		if k[1] == self && e.local >= 0 && now-e.local <= t.stale {
			out = append(out, k[0])
		}
	}
	slices.Sort(out)
	return out
}

func (t *refProbTable) Report(self uint16, now time.Duration) []frame.ProbEntry {
	// (From, To) does not uniquely key a report entry in one corner: the
	// pair (self, self) can carry both a local measurement and a gossiped
	// value (impossible in simulation — nodes never hear themselves — but
	// reachable by synthetic inputs). The contract is local before gossip
	// on that tie; emitting the local entry adjacent-first per key and
	// sorting stably pins it here.
	var out []frame.ProbEntry
	for k, e := range t.m {
		if k[1] == self && e.local >= 0 && now-e.local <= t.stale {
			out = append(out, frame.ProbEntry{From: k[0], To: self, Prob: e.ewma.Value()})
		}
		if k[0] == self && e.hasG && now-e.gossipT <= t.stale {
			out = append(out, frame.ProbEntry{From: self, To: k[1], Prob: e.gossip})
		}
	}
	slices.SortStableFunc(out, func(a, b frame.ProbEntry) int {
		if a.From != b.From {
			return int(a.From) - int(b.From)
		}
		return int(a.To) - int(b.To)
	})
	if len(out) > 255 {
		out = out[:255]
	}
	return out
}

// probIDRegimes are the ID populations the randomized trials cycle
// through: small addresses only, large addresses only (up to 65535, so a
// packed pair key uses all 32 bits), and a mix of both.
var probIDRegimes = [][]uint16{
	{0, 1, 2, 3, 7, 11, 19},
	{2048, 2053, 2148, 40000, 65000, 65535},
	{0, 1, 2, 3, 7, 11, 19, 2053, 65000},
}

// TestProbTableMatchesMapReference drives the incremental table and the
// map reference through identical randomized observe/expire/query
// sequences and demands exact agreement — including EWMA float
// arithmetic, staleness boundaries, ordering and report truncation. The
// trials cycle through small, large and mixed ID regimes so pairs at
// both ends of the address space, and the cross pairs, all face the same
// sequences.
func TestProbTableMatchesMapReference(t *testing.T) {
	for trial := 0; trial < 24; trial++ {
		rng := sim.NewRNG(uint64(1000 + trial))
		const stale = 3 * time.Second
		dut := NewProbTable(0.5, stale)
		ref := newRefProbTable(0.5, stale)

		ids := probIDRegimes[trial%len(probIDRegimes)]
		pick := func() uint16 { return ids[rng.Intn(len(ids))] }

		now := time.Duration(0)
		for step := 0; step < 400; step++ {
			// Advance time irregularly so entries age in and out.
			now += time.Duration(rng.Intn(500)) * time.Millisecond
			switch rng.Intn(3) {
			case 0:
				from, to, ratio := pick(), pick(), rng.Float64()
				dut.ObserveLocal(from, to, ratio, now)
				ref.ObserveLocal(from, to, ratio, now)
			case 1:
				from, to, p := pick(), pick(), rng.Float64()
				dut.ObserveGossip(from, to, p, now)
				ref.ObserveGossip(from, to, p, now)
			case 2:
				// Observation gap: nothing happens, entries go stale.
				now += time.Duration(rng.Intn(4)) * time.Second
			}

			// Full observational comparison every few steps.
			if step%7 != 0 {
				continue
			}
			probe := append([]uint16{42}, ids...) // 42 is never observed
			for _, from := range probe {
				for _, to := range probe {
					g, w := dut.Get(from, to, now), ref.Get(from, to, now)
					if g != w {
						t.Fatalf("trial %d step %d: Get(%d,%d) = %v, ref %v",
							trial, step, from, to, g, w)
					}
				}
			}
			for _, self := range probe {
				gp := dut.FreshLocalPeers(self, now)
				wp := ref.FreshLocalPeers(self, now)
				if !slices.Equal(gp, wp) {
					t.Fatalf("trial %d step %d: FreshLocalPeers(%d) = %v, ref %v",
						trial, step, self, gp, wp)
				}
				gr := dut.Report(self, now)
				wr := ref.Report(self, now)
				if fmt.Sprint(gr) != fmt.Sprint(wr) {
					t.Fatalf("trial %d step %d: Report(%d) =\n%v\nref\n%v",
						trial, step, self, gr, wr)
				}
			}
		}
	}
}

// TestProbTableLateFirstQuery builds every per-self index from a table
// that already holds hundreds of pairs: the first FreshLocalPeers/Report
// for any self comes only after a long observation phase, so buildIndex
// walks the whole slot index (in map order) and must still agree with
// the reference — members sorted, wheels filed for exactly the fresh
// entries — before incremental updates and expiries take over.
func TestProbTableLateFirstQuery(t *testing.T) {
	const stale = 3 * time.Second
	for trial := 0; trial < 6; trial++ {
		rng := sim.NewRNG(uint64(3000 + trial))
		ids := []uint16{0, 65535}
		for len(ids) < 40 {
			ids = append(ids, uint16(rng.Intn(1<<16)))
		}
		pick := func() uint16 { return ids[rng.Intn(len(ids))] }
		dut := NewProbTable(0.5, stale)
		ref := newRefProbTable(0.5, stale)
		now := time.Duration(0)
		step := func() {
			now += time.Duration(rng.Intn(40)) * time.Millisecond
			from, to, x := pick(), pick(), rng.Float64()
			if rng.Intn(2) == 0 {
				dut.ObserveLocal(from, to, x, now)
				ref.ObserveLocal(from, to, x, now)
			} else {
				dut.ObserveGossip(from, to, x, now)
				ref.ObserveGossip(from, to, x, now)
			}
		}
		check := func(phase string) {
			for _, self := range ids {
				gp, wp := dut.FreshLocalPeers(self, now), ref.FreshLocalPeers(self, now)
				if !slices.Equal(gp, wp) {
					t.Fatalf("trial %d %s: FreshLocalPeers(%d) = %v, ref %v", trial, phase, self, gp, wp)
				}
				gr, wr := dut.Report(self, now), ref.Report(self, now)
				if fmt.Sprint(gr) != fmt.Sprint(wr) {
					t.Fatalf("trial %d %s: Report(%d) =\n%v\nref\n%v", trial, phase, self, gr, wr)
				}
			}
		}
		// About 20 s of observations: the early ones are stale by the
		// first query, the late ones fresh, so the build both admits and
		// skips entries.
		for i := 0; i < 600; i++ {
			step()
		}
		check("first query")
		for i := 0; i < 400; i++ {
			step()
			if i%25 == 0 {
				check("incremental")
			}
		}
		now += stale + time.Nanosecond
		check("drained")
	}
}

// TestProbTableMemoryBoundedByPairs pins the table's footprint to the
// pairs it observes, not the address space they are drawn from: a few
// hundred local and gossip pairs scattered over the whole uint16 range
// (0 and 65535 included) must occupy exactly one slot each, and the
// bytes allocated while observing them must stay under a small constant
// per pair. A layout padded out to the highest address seen allocates
// orders of magnitude more.
func TestProbTableMemoryBoundedByPairs(t *testing.T) {
	const maxBytesPerPair = 256
	rng := sim.NewRNG(77)
	ids := []uint16{0, 65535}
	for len(ids) < 64 {
		ids = append(ids, uint16(rng.Intn(1<<16)))
	}
	type obs struct {
		from, to uint16
		gossip   bool
	}
	// Draw the sequence up front, so only the table allocates while the
	// allocation counter runs. Pairs repeat, as re-heard beacons do.
	var seq []obs
	distinct := map[[2]uint16]bool{{0, 65535}: true, {65535, 0}: true}
	seq = append(seq, obs{0, 65535, false}, obs{65535, 0, true})
	for len(seq) < 600 {
		o := obs{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], rng.Intn(2) == 0}
		seq = append(seq, o)
		distinct[[2]uint16{o.from, o.to}] = true
	}
	pt := NewProbTable(0.5, 3*time.Second)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, o := range seq {
		now := time.Duration(i) * time.Millisecond
		if o.gossip {
			pt.ObserveGossip(o.from, o.to, 0.5, now)
		} else {
			pt.ObserveLocal(o.from, o.to, 0.5, now)
		}
	}
	runtime.ReadMemStats(&after)
	if len(pt.slots) != len(distinct) {
		t.Fatalf("%d slots for %d distinct pairs", len(pt.slots), len(distinct))
	}
	perPair := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(distinct))
	t.Logf("%d distinct pairs, %.0f bytes allocated per pair", len(distinct), perPair)
	if perPair > maxBytesPerPair {
		t.Fatalf("observing %d pairs allocated %.0f bytes per pair, want ≤ %d",
			len(distinct), perPair, maxBytesPerPair)
	}
	for k := range distinct {
		if pt.Get(k[0], k[1], time.Duration(len(seq))*time.Millisecond) == 0 {
			t.Fatalf("pair %v lost", k)
		}
	}
}

// TestProbTableStalenessBoundary pins the exact cutoff semantics on
// every read path: an entry observed at t is fresh at t+stale inclusive
// and stale one nanosecond later, for local and gossip alike, in every
// ID regime. The expiry wheels must reproduce this
// boundary exactly — popping at `at < now` (strict) is what makes the
// inclusive edge survive.
func TestProbTableStalenessBoundary(t *testing.T) {
	const stale = 3 * time.Second
	for _, ids := range probIDRegimes {
		peerL, peerG, self := ids[0], ids[1], ids[2]
		dut := NewProbTable(0.5, stale)
		ref := newRefProbTable(0.5, stale)
		t0 := 10 * time.Second
		for _, tb := range []interface {
			ObserveLocal(from, to uint16, ratio float64, now time.Duration)
			ObserveGossip(from, to uint16, p float64, now time.Duration)
		}{dut, ref} {
			tb.ObserveLocal(peerL, self, 0.75, t0)
			tb.ObserveGossip(self, peerG, 0.25, t0)
		}
		edge := t0 + stale
		for _, q := range []struct {
			now       time.Duration
			wantFresh bool
		}{{t0, true}, {edge - 1, true}, {edge, true}, {edge + 1, false}} {
			if got := dut.Get(peerL, self, q.now); (got != 0) != q.wantFresh {
				t.Fatalf("ids %v: local Get at t0+stale%+d = %v, want fresh=%v",
					ids[:3], q.now-edge, got, q.wantFresh)
			}
			if got := dut.Get(self, peerG, q.now); (got != 0) != q.wantFresh {
				t.Fatalf("ids %v: gossip Get at t0+stale%+d = %v, want fresh=%v",
					ids[:3], q.now-edge, got, q.wantFresh)
			}
			wantPeers := 0
			if q.wantFresh {
				wantPeers = 1
			}
			if got := dut.FreshLocalPeers(self, q.now); len(got) != wantPeers {
				t.Fatalf("ids %v: FreshLocalPeers at t0+stale%+d = %v, want %d peers",
					ids[:3], q.now-edge, got, wantPeers)
			}
			gr, wr := dut.Report(self, q.now), ref.Report(self, q.now)
			if fmt.Sprint(gr) != fmt.Sprint(wr) {
				t.Fatalf("ids %v: Report at t0+stale%+d =\n%v\nref\n%v", ids[:3], q.now-edge, gr, wr)
			}
			if len(gr) != 2*wantPeers {
				t.Fatalf("ids %v: Report at t0+stale%+d has %d entries, want %d",
					ids[:3], q.now-edge, len(gr), 2*wantPeers)
			}
		}
	}
}

// TestProbTableReportTruncationTies drives the 255-entry cut through the
// one genuine sort tie — the (self, self) pair carrying both a local
// measurement and a gossiped value — placed so the cut lands inside the
// From == self block. Local must come before gossip on the tie and the
// truncated prefixes must match the reference exactly.
func TestProbTableReportTruncationTies(t *testing.T) {
	const self = 100
	dut := NewProbTable(0.5, time.Hour)
	ref := newRefProbTable(0.5, time.Hour)
	now := time.Second
	for _, tb := range []interface {
		ObserveLocal(from, to uint16, ratio float64, now time.Duration)
		ObserveGossip(from, to uint16, p float64, now time.Duration)
	}{dut, ref} {
		for i := 1; i <= 150; i++ {
			// From 1..99 sort before the From == self block, 101..150 after.
			if i != self {
				tb.ObserveLocal(uint16(i), self, 0.5, now)
			}
		}
		tb.ObserveLocal(self, self, 0.9, now) // the tie, local side
		tb.ObserveGossip(self, self, 0.1, now)
		for i := 1; i <= 150; i++ {
			tb.ObserveGossip(self, uint16(self+i), 0.3, now) // From == self block
		}
	}
	gr, wr := dut.Report(self, 2*time.Second), ref.Report(self, 2*time.Second)
	if len(gr) != 255 {
		t.Fatalf("report length %d, want 255", len(gr))
	}
	if fmt.Sprint(gr) != fmt.Sprint(wr) {
		t.Fatalf("truncated tie report mismatch:\n%v\nref\n%v", gr, wr)
	}
	// The tie sits at positions 99/100 (after the 99 smaller-From local
	// entries): local (0.9) strictly before gossip (0.1) at the identical
	// (From, To) key.
	if gr[99].From != self || gr[99].To != self || gr[99].Prob != 0.9 ||
		gr[100].From != self || gr[100].To != self || gr[100].Prob != 0.1 {
		t.Fatalf("tie order wrong: %v %v", gr[99], gr[100])
	}
}

// TestProbTableReportTruncation pins the 255-entry beacon bound on both
// implementations at once.
func TestProbTableReportTruncation(t *testing.T) {
	dut := NewProbTable(0.5, time.Hour)
	ref := newRefProbTable(0.5, time.Hour)
	const self = 0
	for i := 1; i <= 300; i++ {
		dut.ObserveLocal(uint16(i), self, 0.5, time.Second)
		ref.ObserveLocal(uint16(i), self, 0.5, time.Second)
	}
	gr := dut.Report(self, 2*time.Second)
	wr := ref.Report(self, 2*time.Second)
	if len(gr) != 255 || fmt.Sprint(gr) != fmt.Sprint(wr) {
		t.Fatalf("truncated report mismatch: dut %d entries, ref %d", len(gr), len(wr))
	}
}
