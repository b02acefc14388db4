package core

import (
	"slices"
	"time"

	"github.com/vanlan/vifi/internal/frame"
)

// freshAt is the one staleness predicate of the probability table: a
// timestamp recorded at t is fresh against the cutoff epoch (now − stale)
// when it was ever set (≥ 0, −1 means never) and is at or after the
// cutoff — the boundary is inclusive, an estimate exactly `stale` old
// still counts. Get, FreshLocalPeers, Report and the expiry wheels all
// route through this function, so the read paths cannot drift apart (the
// pre-index Report carried its own gossip variant with a redundant
// `>= 0` re-check, which this replaces).
func freshAt(t, cutoff time.Duration) bool { return t >= 0 && t >= cutoff }

// probSlot is one directed reception-probability estimate, stored by
// value in the table's flat slot slice, so a *probSlot is valid only
// until the next insert (see ProbTable.slot). The EWMA of stats.EWMA is
// inlined so a slot carries no pointers and observations touch exactly
// one cache line.
//
// The mem/wheel flags are owned by the per-self incremental index: for a
// pair (a, b), memL/inLW describe the local fresh set of self b (is a a
// member / filed in b's expiry wheel) and memG/inGW the gossip set of
// self a. Each directed pair belongs to at most one set of each kind, so
// the flags can live with the timestamps they qualify.
type probSlot struct {
	ewma    float64
	gossip  float64       // last value learned from a beacon
	local   time.Duration // time of last local measurement, -1 = never
	gossipT time.Duration // time of last gossip, -1 = never
	ewmaOK  bool
	hasG    bool
	memL    bool // member of the local fresh set of self=to
	inLW    bool // filed in that set's expiry wheel
	memG    bool // member of the gossip fresh set of self=from
	inGW    bool // filed in that set's expiry wheel
}

// emptySlot is the sentinel state of an untouched slot.
func emptySlot() probSlot { return probSlot{local: -1, gossipT: -1} }

// update folds one observation into the slot's EWMA with the exact
// arithmetic of stats.EWMA (first observation initializes).
func (s *probSlot) update(x, alpha float64) {
	if !s.ewmaOK {
		s.ewma = x
		s.ewmaOK = true
		return
	}
	s.ewma = alpha*x + (1-alpha)*s.ewma
}

// wheelItem is one lazy-expiry record: the id was fresh until at least
// `at` when it was filed. Refreshes do not re-file (one record per
// member); a popped record whose slot was refreshed since filing is
// re-filed at the true expiry instead of expired.
type wheelItem struct {
	at time.Duration
	id uint16
}

// freshSet is one incrementally maintained fresh-peer set: the sorted
// member list FreshLocalPeers/Report hand out, plus the expiry wheel (a
// binary min-heap on expiry time) that ages members out lazily when a
// query advances past their staleness deadline — no rescans. Membership
// and wheel-filing state live as flags on the probSlot itself.
type freshSet struct {
	members []uint16    // sorted ascending: exactly the currently fresh ids
	wheel   []wheelItem // min-heap on (at, id); one record per member
}

// insertMember adds id to the sorted member list.
func (s *freshSet) insertMember(id uint16) {
	i, ok := slices.BinarySearch(s.members, id)
	if ok {
		return
	}
	s.members = slices.Insert(s.members, i, id)
}

// removeMember deletes id from the sorted member list.
func (s *freshSet) removeMember(id uint16) {
	i, ok := slices.BinarySearch(s.members, id)
	if !ok {
		return
	}
	s.members = slices.Delete(s.members, i, i+1)
}

// pushWheel files an expiry record.
func (s *freshSet) pushWheel(at time.Duration, id uint16) {
	s.wheel = append(s.wheel, wheelItem{at: at, id: id})
	i := len(s.wheel) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !wheelLess(s.wheel[i], s.wheel[p]) {
			break
		}
		s.wheel[i], s.wheel[p] = s.wheel[p], s.wheel[i]
		i = p
	}
}

// popWheel removes and returns the earliest record.
func (s *freshSet) popWheel() wheelItem {
	top := s.wheel[0]
	last := len(s.wheel) - 1
	s.wheel[0] = s.wheel[last]
	s.wheel = s.wheel[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s.wheel) && wheelLess(s.wheel[l], s.wheel[min]) {
			min = l
		}
		if r < len(s.wheel) && wheelLess(s.wheel[r], s.wheel[min]) {
			min = r
		}
		if min == i {
			return top
		}
		s.wheel[i], s.wheel[min] = s.wheel[min], s.wheel[i]
		i = min
	}
}

func wheelLess(a, b wheelItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

// probIndex is the incremental per-self view of a ProbTable: the fresh
// local peers of self (froms with a fresh estimate of p(from→self)), the
// fresh gossip targets of self (tos with a fresh gossiped p(self→to)),
// and the cached beacon report built from them. Observations maintain the
// sets in O(log members); queries age members out lazily through the
// expiry wheels instead of rescanning the table, so the beacon path costs
// O(peers actually heard recently) — O(neighbors) — not O(population).
type probIndex struct {
	self   uint16
	local  freshSet
	gossip freshSet
	// rep caches the beacon report between queries: it stays valid until
	// an observation touches self's sets or a member expires, so beacons
	// inside a quiet interval reuse it without touching any peer.
	rep   []frame.ProbEntry
	repOK bool
}

// ProbTable holds a node's view of pairwise reception probabilities
// p(a→b), fed by local beacon counting (authoritative) and by values
// gossiped in peers' beacons (§4.6). Entries age out after the staleness
// window so departed nodes stop influencing relay decisions.
//
// Storage is one flat slot slice in first-observed order, indexed by the
// packed pair key (see pairKey): memory follows the pairs a node actually
// observes — its neighborhood — never the address space, and neither the
// slots nor the key index hold pointers, so the garbage collector never
// scans them. The relay and beacon hot paths perform no allocation in
// steady state. The aggregate read paths (FreshLocalPeers, Report) are
// served by incremental per-self indexes (probIndex) maintained by the
// observe calls and aged by expiry wheels, so their cost follows the
// node's neighborhood, never the population.
//
// Time must be fed monotonically: observations and queries with a `now`
// earlier than a previous call may miss entries the wheels already aged
// out. The simulation clock satisfies this by construction.
type ProbTable struct {
	alpha float64
	stale time.Duration
	slots []probSlot // every pair ever observed, first-observed order
	pos   keyIndex   // pairKey(from, to) → index into slots

	// idx is the per-self incremental index. A protocol node only ever
	// queries its own address, so the first index is cached directly;
	// additional selves (tests, diagnostics) land in more.
	idx  *probIndex
	more map[uint16]*probIndex
}

// NewProbTable creates a table with the given EWMA factor and staleness.
func NewProbTable(alpha float64, stale time.Duration) *ProbTable {
	return &ProbTable{alpha: alpha, stale: stale}
}

// pairKey packs a directed pair into the slot index key.
func pairKey(from, to uint16) uint32 { return uint32(from)<<16 | uint32(to) }

// peek returns the slot for (from, to) without growing the table, or nil
// when the pair has never been observed.
func (t *ProbTable) peek(from, to uint16) *probSlot {
	if i := t.pos.get(pairKey(from, to)); i >= 0 {
		return &t.slots[i]
	}
	return nil
}

// slot returns the slot for (from, to), appending it on first touch.
// Growth only happens while the neighborhood is still being discovered;
// steady state never allocates.
//
// A returned pointer (from slot or peek) is valid only until the next
// insert: appending a new pair may move the slot slice. Callers use it
// within one observation or query and never hold it across another slot
// call.
func (t *ProbTable) slot(from, to uint16) *probSlot {
	k := pairKey(from, to)
	i := t.pos.get(k)
	if i < 0 {
		i = int32(len(t.slots))
		t.slots = append(t.slots, emptySlot())
		t.pos.put(k, i)
	}
	return &t.slots[i]
}

// peekIndex returns the index for self when one exists.
func (t *ProbTable) peekIndex(self uint16) *probIndex {
	if ix := t.idx; ix != nil && ix.self == self {
		return ix
	}
	if t.more != nil {
		return t.more[self]
	}
	return nil
}

// IndexOccupancy reports the current member counts of self's incremental
// index: fresh local peers and fresh gossip targets. It is a pure read
// for the observability layer — it neither builds a missing index (a
// node that never queried reads 0/0) nor ages members out, so counts can
// exceed the freshness-accurate FreshLocalPeers by entries the wheels
// have not lazily expired yet (at most one staleness window behind).
func (t *ProbTable) IndexOccupancy(self uint16) (local, gossip int) {
	ix := t.peekIndex(self)
	if ix == nil {
		return 0, 0
	}
	return len(ix.local.members), len(ix.gossip.members)
}

// indexFor returns the index for self, building it on first query with
// one sweep of the stored slots (the only full scan the table ever does
// per self; every later update is incremental).
func (t *ProbTable) indexFor(self uint16, now time.Duration) *probIndex {
	if ix := t.peekIndex(self); ix != nil {
		return ix
	}
	ix := t.buildIndex(self, now)
	if t.idx == nil {
		t.idx = ix
	} else {
		if t.more == nil {
			t.more = map[uint16]*probIndex{}
		}
		t.more[self] = ix
	}
	return ix
}

// buildIndex seeds the per-self index from the slots already stored:
// entries fresh at build time become members with a wheel record; stale
// entries stay out (a future observation re-adds them).
func (t *ProbTable) buildIndex(self uint16, now time.Duration) *probIndex {
	ix := &probIndex{self: self}
	cutoff := now - t.stale
	for k, i := range t.pos.all {
		from, to := uint16(k>>16), uint16(k)
		e := &t.slots[i]
		if to == self && freshAt(e.local, cutoff) {
			e.memL, e.inLW = true, true
			ix.local.members = append(ix.local.members, from)
			ix.local.pushWheel(e.local+t.stale, from)
		}
		if from == self && e.hasG && freshAt(e.gossipT, cutoff) {
			e.memG, e.inGW = true, true
			ix.gossip.members = append(ix.gossip.members, to)
			ix.gossip.pushWheel(e.gossipT+t.stale, to)
		}
	}
	// The walk follows hash order; one sort at build time establishes the
	// invariant the updates maintain. The wheels need no such step: they
	// pop in the strict (at, id) order whatever order filed them.
	slices.Sort(ix.local.members)
	slices.Sort(ix.gossip.members)
	return ix
}

// expireLocal advances self's local wheel to now: filed records past
// their deadline are popped, re-filed when the slot was refreshed since
// filing, and otherwise expired — the member leaves the set and the
// cached report. Amortized O(log members) per expiry, O(1) when nothing
// is due.
func (t *ProbTable) expireLocal(ix *probIndex, now time.Duration) {
	w := &ix.local
	for len(w.wheel) > 0 && w.wheel[0].at < now {
		it := w.popWheel()
		e := t.peek(it.id, ix.self) // member ⇒ slot exists
		if at := e.local + t.stale; at >= now {
			w.pushWheel(at, it.id) // refreshed since filing
			continue
		}
		e.memL, e.inLW = false, false
		w.removeMember(it.id)
		ix.repOK = false
	}
}

// expireGossip is expireLocal for the gossip set (self→to entries).
func (t *ProbTable) expireGossip(ix *probIndex, now time.Duration) {
	w := &ix.gossip
	for len(w.wheel) > 0 && w.wheel[0].at < now {
		it := w.popWheel()
		e := t.peek(ix.self, it.id)
		if at := e.gossipT + t.stale; at >= now {
			w.pushWheel(at, it.id)
			continue
		}
		e.memG, e.inGW = false, false
		w.removeMember(it.id)
		ix.repOK = false
	}
}

// ObserveLocal folds a locally measured reception ratio for from→to
// (normally to == self) at the given time.
func (t *ProbTable) ObserveLocal(from, to uint16, ratio float64, now time.Duration) {
	s := t.slot(from, to)
	s.update(ratio, t.alpha)
	s.local = now
	if ix := t.peekIndex(to); ix != nil {
		ix.repOK = false
		if !s.memL {
			s.memL = true
			ix.local.insertMember(from)
		}
		if !s.inLW {
			s.inLW = true
			ix.local.pushWheel(now+t.stale, from)
		}
	}
}

// ObserveGossip records a probability learned from a peer's beacon.
// Local measurements always win while fresh.
func (t *ProbTable) ObserveGossip(from, to uint16, p float64, now time.Duration) {
	s := t.slot(from, to)
	s.gossip = p
	s.gossipT = now
	s.hasG = true
	if ix := t.peekIndex(from); ix != nil {
		ix.repOK = false
		if !s.memG {
			s.memG = true
			ix.gossip.insertMember(to)
		}
		if !s.inGW {
			s.inGW = true
			ix.gossip.pushWheel(now+t.stale, to)
		}
	}
}

// Get returns the current estimate of p(from→to), preferring fresh local
// measurement over fresh gossip, and zero when nothing fresh is known.
func (t *ProbTable) Get(from, to uint16, now time.Duration) float64 {
	if from == to {
		return 1
	}
	s := t.peek(from, to)
	if s == nil {
		return 0
	}
	cutoff := now - t.stale
	if freshAt(s.local, cutoff) {
		return s.ewma
	}
	if s.hasG && freshAt(s.gossipT, cutoff) {
		return s.gossip
	}
	return 0
}

// FreshLocalPeers returns the peers x with a fresh local estimate of
// p(x→self); used to build beacon prob reports and auxiliary sets. The
// result is sorted ascending: callers break argmax ties and order
// auxiliary sets by it, so any other order would leak nondeterminism
// into anchor choice, relay probabilities and ultimately whole reports.
//
// The returned slice is the index's live member list — read-only, valid
// until the next observation or query for this self. (Refreshing a
// current member, as the beacon counter's decay loop does mid-iteration,
// does not move it.)
func (t *ProbTable) FreshLocalPeers(self uint16, now time.Duration) []uint16 {
	ix := t.indexFor(self, now)
	t.expireLocal(ix, now)
	return ix.local.members
}

// Report builds the beacon probability entries for a node: its fresh
// local measurements (x→self) and the fresh gossiped values about its own
// outgoing links (self→x), which it learned from x's beacons (§4.6).
// Entries are ordered by (From, To) with the report truncated to 255 —
// the wire bound — after ordering, so truncation under ties is exact.
//
// The report is rebuilt only when something changed: between
// observations and expiries the cached entries are returned as-is, so a
// beacon inside a quiet interval touches no peer state at all. The
// returned slice is owned by the table, valid until the next call.
func (t *ProbTable) Report(self uint16, now time.Duration) []frame.ProbEntry {
	ix := t.indexFor(self, now)
	t.expireLocal(ix, now)
	t.expireGossip(ix, now)
	if ix.repOK {
		return ix.rep
	}
	out := ix.rep[:0]
	lm, gm := ix.local.members, ix.gossip.members
	li := 0
	for ; li < len(lm) && lm[li] < self; li++ {
		out = append(out, frame.ProbEntry{From: lm[li], To: self, Prob: t.peek(lm[li], self).ewma})
	}
	// The From == self block merges the (self, self) local entry — which
	// only synthetic inputs can produce — into the gossip entries by To,
	// local first on the exact tie.
	selfLocal := li < len(lm) && lm[li] == self
	if selfLocal {
		li++
	}
	for _, to := range gm {
		if selfLocal && to >= self {
			out = append(out, frame.ProbEntry{From: self, To: self, Prob: t.peek(self, self).ewma})
			selfLocal = false
		}
		out = append(out, frame.ProbEntry{From: self, To: to, Prob: t.peek(self, to).gossip})
	}
	if selfLocal {
		out = append(out, frame.ProbEntry{From: self, To: self, Prob: t.peek(self, self).ewma})
	}
	for ; li < len(lm); li++ {
		out = append(out, frame.ProbEntry{From: lm[li], To: self, Prob: t.peek(lm[li], self).ewma})
	}
	if len(out) > 255 {
		out = out[:255]
	}
	ix.rep = out
	ix.repOK = true
	return out
}

// beaconCounter tracks beacons heard from each peer in the current
// probe window and flushes per-window reception ratios into a ProbTable.
// heardList records the peers the window touched in first-heard order,
// with their counts in heardN; pos finds a peer's entry. The flush sweep
// visits exactly the peers heard — O(neighbors), never O(table) — and
// the window resets without releasing any storage.
type beaconCounter struct {
	table     *ProbTable
	self      uint16
	window    time.Duration
	expected  float64  // beacons expected per window
	heardList []uint16 // peers heard this window, in first-heard order
	heardN    []int32  // beacons heard from heardList[i] this window
	pos       keyIndex // peer → index into heardList
	windowAt  time.Duration
}

func newBeaconCounter(table *ProbTable, self uint16, window, beaconInterval time.Duration) *beaconCounter {
	return &beaconCounter{
		table:    table,
		self:     self,
		window:   window,
		expected: float64(window) / float64(beaconInterval),
	}
}

// hear records one beacon from the peer.
func (b *beaconCounter) hear(peer uint16) {
	i := b.pos.get(uint32(peer))
	if i < 0 {
		i = int32(len(b.heardList))
		b.heardList = append(b.heardList, peer)
		b.heardN = append(b.heardN, 0)
		b.pos.put(uint32(peer), i)
	}
	b.heardN[i]++
}

// heardFrom reports whether the peer beaconed this window.
func (b *beaconCounter) heardFrom(peer uint16) bool { return b.pos.get(uint32(peer)) >= 0 }

// flush closes the window at time now: every peer heard this window gets
// its ratio folded in, and currently-known peers that went silent decay
// toward zero so their estimates can age out.
func (b *beaconCounter) flush(now time.Duration) {
	// Fold ratios for peers heard this window. EWMA folding is per-peer
	// independent, so the sweep order does not affect state.
	for i, peer := range b.heardList {
		r := float64(b.heardN[i]) / b.expected
		if r > 1 {
			r = 1
		}
		b.table.ObserveLocal(peer, b.self, r, now)
	}
	// Decay peers with fresh estimates that went silent this window, but
	// once an estimate has decayed to noise stop refreshing it so the
	// entry can age out entirely.
	for _, peer := range b.table.FreshLocalPeers(b.self, now) {
		if !b.heardFrom(peer) {
			if b.table.Get(peer, b.self, now) > 0.01 {
				b.table.ObserveLocal(peer, b.self, 0, now)
			}
		}
	}
	b.pos.reset()
	b.heardList = b.heardList[:0]
	b.heardN = b.heardN[:0]
	b.windowAt = now
}
