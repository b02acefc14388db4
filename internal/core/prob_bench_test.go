package core

import (
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/sim"
)

// benchPop is the historical peer population: every one of these IDs has
// been observed at least once, so the pre-index implementation (the map
// reference) pays for all of them on every beacon. benchNbrs is the live
// neighborhood re-observed each interval — the only set the incremental
// table should be touching.
const (
	benchPop  = 10000
	benchNbrs = 24
)

// beaconTable is the surface the beacon path exercises each interval,
// satisfied by both the incremental table and the map reference.
type beaconTable interface {
	ObserveLocal(from, to uint16, ratio float64, now time.Duration)
	FreshLocalPeers(self uint16, now time.Duration) []uint16
	Report(self uint16, now time.Duration) []frame.ProbEntry
}

// benchBeaconSweep measures one beacon interval's protocol work — refresh
// the neighborhood, churn one distant peer, list fresh peers, build the
// report — over a table that has historically seen a 10000-peer
// population. The population is aged out before timing starts: a node
// that has driven across the city holds state for thousands of peers but
// hears only its neighborhood, and per-beacon cost must follow the
// latter.
func benchBeaconSweep(b *testing.B, tb beaconTable) {
	const stale = 3 * time.Second
	const self = 0
	now := time.Second
	for p := 1; p <= benchPop; p++ {
		tb.ObserveLocal(uint16(p), self, 0.5, now)
	}
	now += stale + time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 100 * time.Millisecond
		for p := uint16(1); p <= benchNbrs; p++ {
			tb.ObserveLocal(p, self, 0.5, now)
		}
		churn := uint16(benchNbrs + 1 + i%(benchPop-benchNbrs))
		tb.ObserveLocal(churn, self, 0.9, now)
		if got := tb.FreshLocalPeers(self, now); len(got) == 0 {
			b.Fatal("empty fresh set")
		}
		if rep := tb.Report(self, now); len(rep) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkProbBeaconSweep10k is the incremental table on the beacon
// path: O(neighbors) per interval regardless of historical population.
func BenchmarkProbBeaconSweep10k(b *testing.B) {
	benchBeaconSweep(b, NewProbTable(0.5, 3*time.Second))
}

// BenchmarkRefProbBeaconSweep10k is the pre-index implementation on the
// identical sequence: it rescans the full 10000-entry map per query, and
// the ratio between these two benchmarks is the protocol-layer speedup
// the index exists for.
func BenchmarkRefProbBeaconSweep10k(b *testing.B) {
	benchBeaconSweep(b, newRefProbTable(0.5, 3*time.Second))
}

// BenchmarkProbGossipFill fills one fresh table per op with the beacon
// gossip a basestation of a 1,250-radio city hears: benchNbrs neighbours
// scattered over the city's address range, each reporting 16 of its own
// links, re-heard over ten beacon intervals. B/op is the table's memory
// for those few hundred pairs, so a layout that grows with the address
// space rather than the observed pairs shows here first.
func BenchmarkProbGossipFill(b *testing.B) {
	const cityAddrs = 1300
	type pair struct{ from, to uint16 }
	rng := sim.NewRNG(11)
	var pairs []pair
	for n := 0; n < benchNbrs; n++ {
		nbr := uint16(rng.Intn(cityAddrs))
		for j := 0; j < 16; j++ {
			peer := uint16(rng.Intn(cityAddrs))
			if j%2 == 0 {
				pairs = append(pairs, pair{peer, nbr}) // nbr's local estimate
			} else {
				pairs = append(pairs, pair{nbr, peer}) // gossip nbr learned
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := NewProbTable(0.5, 3*time.Second)
		now := time.Duration(0)
		for r := 0; r < 10; r++ {
			now += 100 * time.Millisecond
			for _, p := range pairs {
				tb.ObserveGossip(p.from, p.to, 0.5, now)
			}
		}
	}
}
