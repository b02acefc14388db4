package core

import (
	"testing"

	"github.com/vanlan/vifi/internal/sim"
)

// TestKeyIndexMatchesMap drives the open-addressed index and a Go map
// through the same puts, lookups and resets — keys clustered the way
// packed pair keys are, plus the extremes 0 and 0xFFFFFFFF — and
// demands identical answers, including the full walk.
func TestKeyIndexMatchesMap(t *testing.T) {
	rng := sim.NewRNG(9)
	var x keyIndex
	ref := map[uint32]int32{}
	key := func() uint32 {
		switch rng.Intn(4) {
		case 0:
			return []uint32{0, 0xFFFFFFFF, 0xFFFF, 0xFFFF0000}[rng.Intn(4)]
		case 1:
			return pairKey(uint16(rng.Intn(64)), uint16(rng.Intn(64)))
		default:
			return uint32(rng.Uint64())
		}
	}
	for round := 0; round < 5; round++ {
		for step := 0; step < 3000; step++ {
			k := key()
			if _, ok := ref[k]; !ok {
				v := int32(len(ref))
				ref[k] = v
				x.put(k, v)
			}
			probe := key()
			want, ok := ref[probe]
			if !ok {
				want = -1
			}
			if got := x.get(probe); got != want {
				t.Fatalf("round %d step %d: get(%#x) = %d, want %d", round, step, probe, got, want)
			}
		}
		seen := 0
		for k, v := range x.all {
			if ref[k] != v {
				t.Fatalf("round %d: walk yields %#x → %d, want %d", round, k, v, ref[k])
			}
			seen++
		}
		if seen != len(ref) || x.n != len(ref) || 2*x.n > len(x.cells) {
			t.Fatalf("round %d: walk saw %d keys, n = %d, %d cells, want %d keys at most half full",
				round, seen, x.n, len(x.cells), len(ref))
		}
		x.reset()
		clear(ref)
		if x.get(0) != -1 || x.get(0xFFFFFFFF) != -1 {
			t.Fatalf("round %d: keys survived reset", round)
		}
	}
}
