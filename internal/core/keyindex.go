package core

import "math/bits"

// keyIndex maps uint32 keys to non-negative int32 positions: the lookup
// structure behind ProbTable's slots (keyed by pairKey) and the beacon
// counter's per-window peers. It is open-addressed with linear probing
// over a power-of-two cell array kept at most half full, and Fibonacci
// hashing spreads the packed addresses. Each cell packs key<<32 |
// position+1, so a zero cell is empty and the index holds no pointers.
//
// It stands in for a Go map on the beacon path, where map lookups (one
// per gossiped pair) took about 9% of the CPU of a Fig 10 run; a probe
// here is one multiply, one shift and, almost always, one cell. Keys are
// never deleted one by one; reset empties the whole index at once.
type keyIndex struct {
	cells []uint64
	n     int   // keys stored
	shift uint8 // 32 − log2(len(cells))
}

// minCells is the cell count of a keyIndex's first allocation.
const minCells = 16

// home returns the cell a key's probe sequence starts at.
func (x *keyIndex) home(k uint32) uint32 { return (k * 0x9E3779B1) >> x.shift }

// get returns the position stored for k, or -1 when k is absent.
func (x *keyIndex) get(k uint32) int32 {
	if x.n == 0 {
		return -1
	}
	mask := uint32(len(x.cells) - 1)
	for i := x.home(k); ; i = (i + 1) & mask {
		c := x.cells[i]
		if c == 0 {
			return -1
		}
		if uint32(c>>32) == k {
			return int32(uint32(c)) - 1
		}
	}
}

// put stores position v ≥ 0 for a key that is not yet present.
func (x *keyIndex) put(k uint32, v int32) {
	if 2*(x.n+1) > len(x.cells) {
		x.grow()
	}
	x.place(uint64(k)<<32 | uint64(uint32(v)+1))
	x.n++
}

// place files a packed cell at the first free slot of its probe sequence.
func (x *keyIndex) place(c uint64) {
	mask := uint32(len(x.cells) - 1)
	i := x.home(uint32(c >> 32))
	for x.cells[i] != 0 {
		i = (i + 1) & mask
	}
	x.cells[i] = c
}

// grow doubles the cell array and re-files every stored key.
func (x *keyIndex) grow() {
	old := x.cells
	size := max(2*len(old), minCells)
	x.cells = make([]uint64, size)
	x.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	for _, c := range old {
		if c != 0 {
			x.place(c)
		}
	}
}

// reset removes every key, keeping the cell array for reuse.
func (x *keyIndex) reset() {
	if x.n > 0 {
		clear(x.cells)
		x.n = 0
	}
}

// all yields every stored (key, position) pair in cell order — a
// function of the keys stored and their insertion order, never of
// process state — for the rare full walks.
func (x *keyIndex) all(yield func(k uint32, v int32) bool) {
	for _, c := range x.cells {
		if c != 0 && !yield(uint32(c>>32), int32(uint32(c))-1) {
			return
		}
	}
}
