package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// bsOnlyRun runs a network of basestations without vehicles for d and
// returns its kernel and nodes.
func bsOnlyRun(seed int64, cfg Config, d time.Duration) (*sim.Kernel, []*Node) {
	k := sim.NewKernel(seed)
	opts := DefaultCellOptions()
	opts.Protocol = cfg
	movers := []mobility.Mover{
		mobility.Fixed{X: 0}, mobility.Fixed{X: 60}, mobility.Fixed{X: 120}, mobility.Fixed{X: 180},
	}
	c := newCellBase(k, opts, movers)
	k.RunUntil(d)
	return k, c.BSes
}

// TestRelayTimerSleepsWhenIdle: with nothing ever overheard, the relay
// timer costs no kernel events — the network runs exactly the events it
// would run with relaying switched off.
func TestRelayTimerSleepsWhenIdle(t *testing.T) {
	off := DefaultConfig()
	off.EnableRelay = false
	kOn, bses := bsOnlyRun(3, DefaultConfig(), 10*time.Second)
	kOff, _ := bsOnlyRun(3, off, 10*time.Second)
	if kOn.EventsRun() != kOff.EventsRun() || kOn.Pending() != kOff.Pending() {
		t.Errorf("relay on: %d events run, %d queued; relay off: %d run, %d queued",
			kOn.EventsRun(), kOn.Pending(), kOff.EventsRun(), kOff.Pending())
	}
	for _, n := range bses {
		if n.relayT.Pending() {
			t.Errorf("bs %d holds a relay event with nothing pending", n.Addr())
		}
	}
}

// relayFixture is a three-basestation cell whose middle basestation is
// made an auxiliary for the vehicle on demand.
type relayFixture struct {
	k    *sim.Kernel
	cell *Cell
	bs   *Node
	seq  uint32
}

func newRelayFixture(seed int64) *relayFixture {
	k := sim.NewKernel(seed)
	movers := []mobility.Mover{
		mobility.Fixed{X: 0}, mobility.Fixed{X: 60}, mobility.Fixed{X: 120},
	}
	cell := NewCell(k, DefaultCellOptions(), movers, mobility.Fixed{X: 30})
	return &relayFixture{k: k, cell: cell, bs: cell.BSes[1]}
}

// overhear hands the auxiliary a fresh upstream data frame and returns its
// packet ID.
func (x *relayFixture) overhear() frame.PacketID {
	veh := x.cell.Vehicle.Addr()
	vs := x.bs.ensureVeh(veh)
	vs.lastBeacon = x.k.Now()
	if !contains(vs.aux, x.bs.Addr()) {
		vs.aux = append(vs.aux, x.bs.Addr())
	}
	x.seq++
	f := &frame.Frame{
		Type: frame.TypeData, Src: veh, Dst: x.cell.BSes[0].Addr(),
		Seq: x.seq, FromVehicle: true, Payload: make([]byte, 32),
	}
	x.bs.considerPending(f)
	return f.ID()
}

// eagerFirings replays the relay timer of the node at addr as if it fired
// every period from construction: each call returns the next firing time,
// drawing the same jitter from a fresh copy of the node's relay stream.
func eagerFirings(k *sim.Kernel, addr uint16, check time.Duration) (next func() time.Duration, rng *sim.RNG) {
	rng = k.RNG("core", fmt.Sprint(addr))
	var at time.Duration
	return func() time.Duration {
		if at == 0 {
			at = check + rng.Jitter(check)
		} else {
			at += check + rng.Jitter(check/2)
		}
		return at
	}, rng
}

// TestRelayTimerMatchesEagerChain: after a long idle stretch, an
// overheard frame arms the relay timer at exactly the firing an
// every-period chain reaches, with the relay stream left where that chain
// leaves it. A frame overheard at the very instant of a skipped firing
// arms that firing, which then runs after the instant's ordinary events.
func TestRelayTimerMatchesEagerChain(t *testing.T) {
	const onFiring = -1
	for _, idle := range []time.Duration{0, 3 * time.Second, 7*time.Second + 1234567, onFiring} {
		x := newRelayFixture(11)
		check := x.bs.cfg.RelayCheck
		next, eager := eagerFirings(x.k, x.bs.Addr(), check)
		if idle == onFiring {
			probe, _ := eagerFirings(x.k, x.bs.Addr(), check)
			for idle = probe(); idle < 5*time.Second; idle = probe() {
			}
		}
		x.k.RunUntil(idle)
		want := next()
		for want < idle {
			want = next()
		}

		x.overhear()
		if !x.bs.relayT.Pending() || x.bs.relayAt != want {
			t.Fatalf("idle %v: relay timer armed=%v at %v, want armed at %v",
				idle, x.bs.relayT.Pending(), x.bs.relayAt, want)
		}
		if *x.bs.rng != *eager {
			t.Fatalf("idle %v: relay stream diverged from the eager chain", idle)
		}
		if want > idle {
			x.k.RunUntil(want - 1)
			if x.bs.relayAt != want {
				t.Fatalf("idle %v: relay timer fired before %v", idle, want)
			}
		}
		// The firing finds the frame still inside AckWait, so it keeps
		// the frame and re-arms one eager period later.
		x.k.RunUntil(want)
		if at := next(); !x.bs.relayT.Pending() || x.bs.relayAt != at {
			t.Fatalf("idle %v: after firing at %v, armed=%v at %v, want %v",
				idle, want, x.bs.relayT.Pending(), x.bs.relayAt, at)
		}
	}
}

// TestRelayTimerArmedWhilePending is a randomized property over overheard
// frames, overheard acknowledgments, cold restarts and the passage of
// time: whenever the auxiliary holds a pending frame its relay timer is
// armed, and once everything has aged out the timer sleeps.
func TestRelayTimerArmedWhilePending(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		x := newRelayFixture(seed)
		x.k.RunUntil(2 * time.Second)
		r := sim.NewRNG(uint64(seed))
		var ids []frame.PacketID
		for step := 0; step < 300; step++ {
			switch op := r.Intn(8); {
			case op < 3:
				ids = append(ids, x.overhear())
			case op < 5 && len(ids) > 0:
				id := ids[r.Intn(len(ids))]
				x.bs.handleAck(&frame.Frame{
					Type: frame.TypeAck, Src: x.cell.BSes[0].Addr(),
					Dst: id.Src, AckSrc: id.Src, AckSeq: id.Seq,
				})
			case op == 5 && r.Bool(0.2):
				x.bs.ColdRestart()
			default:
				x.k.RunUntil(x.k.Now() + time.Duration(r.Intn(int(20*time.Millisecond))))
			}
			if len(x.bs.pending) > 0 && !x.bs.relayT.Pending() {
				t.Fatalf("seed %d step %d: %d pending frames, relay timer unarmed",
					seed, step, len(x.bs.pending))
			}
			if x.bs.relayT.Pending() && x.bs.relayAt < x.k.Now() {
				t.Fatalf("seed %d step %d: relay timer armed in the past", seed, step)
			}
		}
		x.k.RunUntil(x.k.Now() + time.Second)
		if len(x.bs.pending) != 0 || x.bs.relayT.Pending() {
			t.Errorf("seed %d: after draining, %d pending, timer armed=%v",
				seed, len(x.bs.pending), x.bs.relayT.Pending())
		}
	}
}
