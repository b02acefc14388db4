// Package sim provides the discrete-event simulation kernel underneath the
// ViFi reproduction: a virtual clock, a 4-ary-heap event scheduler, and
// deterministic, stream-splittable random number generation.
//
// All protocol and channel code in this repository is written against this
// kernel so that every experiment is reproducible bit-for-bit from a seed.
// The kernel is single-goroutine by design — wireless simulations are
// latency-dominated, not CPU-parallel, and determinism matters more than
// core count here. Parallelism happens above the kernel: the Coupler in
// this package runs several kernels as conservatively coupled shards.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Event is a callback scheduled to run at a virtual time.
type Event func()

// Handler is the allocation-free way to schedule work: a long-lived
// protocol object implements OnEvent once and is scheduled repeatedly via
// AtHandler/AfterHandler without allocating a closure per event. The
// closure forms At/After remain as the convenient fallback; the kernel
// itself never allocates per event either way — event records live in a
// pooled, index-addressed arena with a free list.
type Handler interface {
	OnEvent()
}

// event is one pooled scheduled-event record. Records are addressed by
// index into the kernel's arena; gen distinguishes reuses of a slot so
// stale Timer handles can never cancel an unrelated event.
type event struct {
	at   time.Duration
	seq  uint64 // tie-breaker: FIFO among equal timestamps, late events last
	h    Handler
	fn   Event
	gen  uint32
	hpos int32 // position in the heap, -1 when not queued
	next int32 // free-list link
}

// Timer is a handle to a scheduled event that can be cancelled. The zero
// value is a valid, non-pending timer; Stop and Pending on it are no-ops.
type Timer struct {
	k   *Kernel
	idx int32
	gen uint32
}

// Stop cancels the timer if it has not fired, removing the event from the
// scheduler in O(log n). It reports whether the timer was still pending.
func (t Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	k := t.k
	k.heapRemove(k.pool[t.idx].hpos)
	k.release(t.idx)
	return true
}

// Pending reports whether the timer is still scheduled and uncancelled.
func (t Timer) Pending() bool {
	if t.k == nil || int(t.idx) >= len(t.k.pool) {
		return false
	}
	ev := &t.k.pool[t.idx]
	return ev.gen == t.gen && ev.hpos >= 0
}

// Kernel is a discrete-event simulation kernel. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now  time.Duration
	pool []event    // arena of event records
	free int32      // free-list head, -1 when empty
	heap []heapSlot // 4-ary min-heap ordered by (at, seq)
	seq  uint64
	root uint64 // root seed for RNG streams
	nrun uint64 // events executed
}

// NewKernel returns a kernel whose clock starts at zero and whose RNG
// streams derive from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{root: splitmix(uint64(seed)), free: -1}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// EventsRun returns the number of events executed so far (useful in tests
// and for progress accounting).
func (k *Kernel) EventsRun() uint64 { return k.nrun }

// Pending returns the number of scheduled events.
func (k *Kernel) Pending() int { return len(k.heap) }

// alloc takes a record from the free list, growing the arena only when it
// is exhausted (steady state never grows).
func (k *Kernel) alloc() int32 {
	if i := k.free; i >= 0 {
		k.free = k.pool[i].next
		return i
	}
	k.pool = append(k.pool, event{})
	return int32(len(k.pool) - 1)
}

// release returns a record to the free list, invalidating outstanding
// Timer handles via the generation counter.
func (k *Kernel) release(i int32) {
	ev := &k.pool[i]
	ev.h, ev.fn = nil, nil
	ev.gen++
	ev.hpos = -1
	ev.next = k.free
	k.free = i
}

func (k *Kernel) schedule(at time.Duration, h Handler, fn Event) Timer {
	k.seq++
	return k.push(at, k.seq, h, fn)
}

func (k *Kernel) push(at time.Duration, seq uint64, h Handler, fn Event) Timer {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	i := k.alloc()
	ev := &k.pool[i]
	ev.at, ev.seq, ev.h, ev.fn = at, seq, h, fn
	k.heapPush(i)
	return Timer{k: k, idx: i, gen: ev.gen}
}

// lateSeq marks the seq of a late event. Ordinary seqs count up from 1 and
// never reach it, so late events sort after every ordinary event at their
// instant.
const lateSeq = 1 << 63

// AtHandlerLate schedules h.OnEvent at absolute virtual time at with an
// order that does not depend on when it was scheduled: it runs after every
// ordinary event due at the same instant, and late events sharing an
// instant run in ascending key order. The caller keeps keys unique among
// its pending late events; the key's top bit is ignored.
func (k *Kernel) AtHandlerLate(at time.Duration, key uint64, h Handler) Timer {
	return k.push(at, lateSeq|key, h, nil)
}

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past panics: it always indicates a protocol bug.
func (k *Kernel) At(at time.Duration, fn Event) Timer {
	return k.schedule(at, nil, fn)
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d time.Duration, fn Event) Timer {
	if d < 0 {
		d = 0
	}
	return k.schedule(k.now+d, nil, fn)
}

// AtHandler schedules h.OnEvent to run at absolute virtual time at. It is
// the allocation-free twin of At.
func (k *Kernel) AtHandler(at time.Duration, h Handler) Timer {
	return k.schedule(at, h, nil)
}

// AfterHandler schedules h.OnEvent to run d after the current time.
func (k *Kernel) AfterHandler(d time.Duration, h Handler) Timer {
	if d < 0 {
		d = 0
	}
	return k.schedule(k.now+d, h, nil)
}

// Step executes the earliest pending event. It reports false when the
// event queue is empty.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	i := k.heap[0].idx
	k.heapRemove(0)
	ev := &k.pool[i]
	k.now = ev.at
	k.nrun++
	// Copy the callback out and free the slot before invoking: the
	// callback may schedule (possibly growing the arena and reusing this
	// very slot), so no pointer into the pool survives the call.
	h, fn := ev.h, ev.fn
	k.release(i)
	if h != nil {
		h.OnEvent()
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue drains.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with timestamps ≤ deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline remain queued.
func (k *Kernel) RunUntil(deadline time.Duration) {
	for len(k.heap) > 0 && k.heap[0].at <= deadline {
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// RunBefore executes events with timestamps strictly < deadline, then
// advances the clock to deadline. It is the windowed-stepping primitive of
// the Coupler: after RunBefore(T) the kernel sits exactly at T with every
// pre-T event executed, so events injected at ≥ T (cross-shard arrivals
// whose timestamps land on the window edge) are legal to schedule and will
// run in a later window in exact (at, seq) order.
func (k *Kernel) RunBefore(deadline time.Duration) {
	for len(k.heap) > 0 && k.heap[0].at < deadline {
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// --- event heap -----------------------------------------------------------
//
// The heap slots carry the ordering key (at, seq) inline next to the pool
// index: comparisons stay within the heap's own memory instead of
// dereferencing the event arena, which is where a population-scale
// simulation (tens of thousands of pending events, millions of heap ops)
// spends its comparison time. The heap is 4-ary for the same reason —
// half the depth of a binary heap, and the four children of a node share
// a cache line. (at, seq) is a strict total order over live events (seq
// is unique: ordinary seqs by counting, late seqs by their callers' unique
// keys), so heap shape never influences pop order: any correct heap pops
// the exact same sequence.

// heapSlot is one heap entry: the ordering key and the pool index.
type heapSlot struct {
	at  time.Duration
	seq uint64
	idx int32
}

func slotLess(a, b heapSlot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (k *Kernel) heapPush(i int32) {
	pos := int32(len(k.heap))
	ev := &k.pool[i]
	k.heap = append(k.heap, heapSlot{at: ev.at, seq: ev.seq, idx: i})
	ev.hpos = pos
	k.siftUp(pos)
}

// heapRemove removes the entry at heap position pos in O(log n),
// maintaining every record's hpos.
func (k *Kernel) heapRemove(pos int32) {
	n := int32(len(k.heap)) - 1
	removed := k.heap[pos].idx
	last := k.heap[n]
	k.heap = k.heap[:n]
	k.pool[removed].hpos = -1
	if pos < n {
		k.heap[pos] = last
		k.pool[last.idx].hpos = pos
		if !k.siftUp(pos) {
			k.siftDown(pos)
		}
	}
}

// siftUp restores the heap property upward from pos and reports whether
// the entry moved.
func (k *Kernel) siftUp(pos int32) bool {
	moved := false
	s := k.heap[pos]
	for pos > 0 {
		parent := (pos - 1) / 4
		if !slotLess(s, k.heap[parent]) {
			break
		}
		k.heap[pos] = k.heap[parent]
		k.pool[k.heap[pos].idx].hpos = pos
		pos = parent
		moved = true
	}
	if moved {
		k.heap[pos] = s
		k.pool[s.idx].hpos = pos
	}
	return moved
}

func (k *Kernel) siftDown(pos int32) {
	n := int32(len(k.heap))
	s := k.heap[pos]
	moved := false
	for {
		first := 4*pos + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if slotLess(k.heap[c], k.heap[best]) {
				best = c
			}
		}
		if !slotLess(k.heap[best], s) {
			break
		}
		k.heap[pos] = k.heap[best]
		k.pool[k.heap[pos].idx].hpos = pos
		pos = best
		moved = true
	}
	if moved {
		k.heap[pos] = s
		k.pool[s.idx].hpos = pos
	}
}

// RNG returns a deterministic random stream derived from the kernel seed
// and the given labels. Identical labels yield identical streams, so each
// link, node or process can own an independent stream that does not
// perturb any other — adding a new consumer of randomness never changes
// existing experiments.
func (k *Kernel) RNG(labels ...string) *RNG {
	h := k.root
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			h = splitmix(h ^ uint64(l[i]))
		}
		h = splitmix(h ^ 0x9e3779b97f4a7c15)
	}
	return NewRNG(h)
}

// splitmix is the SplitMix64 finalizer, used both to derive stream seeds
// and as the core of RNG.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a small, fast, deterministic random number generator
// (xoshiro256** seeded via SplitMix64). It intentionally does not share
// state with math/rand so experiments stay reproducible regardless of what
// other packages do.
type RNG struct {
	s [4]uint64
}

// NewRNG returns an RNG seeded from the given value.
func NewRNG(seed uint64) *RNG {
	var r RNG
	x := seed
	for i := range r.s {
		x = splitmix(x)
		r.s[i] = x
	}
	// xoshiro must not be seeded all-zero.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n ≤ 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return -math.Log(u)
	}
}

// Jitter returns a uniform value in [-d/2, d/2], handy for desynchronizing
// periodic processes such as beacons and relay timers.
func (r *RNG) Jitter(d time.Duration) time.Duration {
	return time.Duration((r.Float64() - 0.5) * float64(d))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sample returns k distinct values from [0, n) in random order.
// It panics if k > n.
func (r *RNG) Sample(n, k int) []int {
	if k > n {
		panic("sim: Sample k > n")
	}
	return r.Perm(n)[:k]
}
