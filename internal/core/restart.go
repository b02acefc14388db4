package core

import "github.com/vanlan/vifi/internal/frame"

// ColdRestart wipes the node's protocol state as a crash-and-reboot
// would: everything learned over the air or the backplane — probability
// tables, beacon counters, anchor/auxiliary designations, per-vehicle
// state including the salvage cache, in-flight packets, the auxiliary
// pending list and the dedup cache — is discarded, so peers' entries for
// this node age out and both sides re-learn from scratch. The fault
// injector calls this when a basestation's outage ends.
//
// Two counters deliberately survive: nextSeq and beaconSeq. Reusing
// sequence numbers after a crash would collide fresh PacketIDs with
// pre-crash ones still sitting in peers' dedup caches, silently
// swallowing new packets — modeling the usual persisted/randomized
// initial sequence number. The node's periodic window/relay timers keep
// running; they operate correctly on the fresh state.
func (n *Node) ColdRestart() {
	// Sender: settle and recycle everything in flight.
	for seq, pkt := range n.outstanding {
		pkt.timer.Stop()
		delete(n.outstanding, seq)
		n.freePkt(pkt)
	}
	n.delays = newDelaySampler(len(n.delays.ring))

	// Receiver dedup cache.
	for n.ackedQ.Len() > 0 {
		delete(n.acked, n.ackedQ.PopFront())
	}

	// Learned reachability: fresh probability table and beacon counter.
	n.probs = NewProbTable(n.cfg.ProbAlpha, n.cfg.ProbStale)
	n.counter = newBeaconCounter(n.probs, n.addr, n.cfg.ProbWindow, n.cfg.BeaconInterval)

	// Vehicle designations.
	n.anchor, n.prevAnchor = frame.None, frame.None
	n.auxList = n.auxList[:0]
	clear(n.vehPeers)

	// Basestation roles: per-vehicle state (anchor flags, salvage caches)
	// and the auxiliary's overheard-packet list.
	clear(n.vehs)
	for i := range n.pending {
		n.pending[i] = pendEntry{}
	}
	n.pending = n.pending[:0]
}
