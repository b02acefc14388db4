package experiment

import (
	"strconv"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/fault"
	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/workload"
)

// This file carries the fleet execution session: the build / advance /
// finish phases of a fleet application run, factored out of the one-shot
// runners so a serving frontend can hold a run open, advance it in
// barrier-aligned steps, sample metrics between steps, and still produce
// the byte-identical FleetAppRun the batch path computes. The batch
// runners (RunFleetAppWorkload and its sharded variant) are thin
// wrappers that build a session and drive it to completion in one call.

// fleetSession is one fleet application execution between build and
// finish. eff==1 runs a single kernel — serially, or with the channel's
// delivery fan-out halo-sharded across stripe lanes (haloLanes>1) when
// the planner chose shardModeHalo; eff>1 runs coupled shard kernels
// (districted specs). The setup order inside each branch mirrors the
// historical one-shot runners exactly — that equivalence is what the
// sampling-identity and shard-identity goldens pin.
type fleetSession struct {
	seed     int64
	spec     scenario.Spec
	cfg      core.Config
	duration time.Duration
	until    time.Duration
	key      string
	appcfg   workload.Config

	eff           int    // kernel count: >1 only for coupled shards
	haloLanes     int    // delivery lanes on the halo path (0/1 otherwise)
	requested     int    // shard count the caller asked for
	reason        string // why a shards>1 request degraded to serial
	districtShard []int  // nil off the coupled path
	kernels       []*sim.Kernel
	cells         []*core.Cell
	recs          []*faultRecorder
	drivers       [][]workload.Driver
	kinds         []workload.Kind
	lay           *scenario.Layout
	tl            fault.Timeline
	coupler       *sim.Coupler // nil on the serial path

	samplers []*obs.Sampler

	cursor time.Duration // serial stepping cursor
	crun   *sim.CoupledRun
	stats  []sim.ShardStats
	ran    bool
}

// newFleetSession builds the full simulation state for one fleet run:
// kernels, cells, fault plan, workload drivers — everything up to (but
// not including) the first executed event.
func newFleetSession(seed int64, spec scenario.Spec, cfg core.Config, duration time.Duration, shards int) (*fleetSession, error) {
	opts := core.DefaultCellOptions()
	opts.Protocol = cfg
	plan := shardPlan(spec, opts, shards)
	eff := 1 // kernel count; the halo mode parallelizes inside one kernel
	if plan.mode == shardModeCoupled {
		eff = plan.eff
	}

	fs, err := spec.FaultSpec()
	if err != nil {
		return nil, err
	}
	s := &fleetSession{
		seed: seed, spec: spec, cfg: cfg,
		duration: duration, until: duration + time.Second,
		key: spec.Key(), appcfg: spec.AppConfig(),
		eff: eff, districtShard: plan.districtShard,
		requested: shards, reason: plan.reason,
		kernels: make([]*sim.Kernel, eff),
		cells:   make([]*core.Cell, eff),
		recs:    make([]*faultRecorder, eff),
		drivers: make([][]workload.Driver, eff),
	}
	if eff > 1 {
		s.coupler = sim.NewCoupler()
	}

	for sh := 0; sh < eff; sh++ {
		k := sim.NewKernel(seed)
		var cell *core.Cell
		var lay *scenario.Layout
		if s.coupler == nil {
			cell, lay, err = scenario.BuildCell(k, spec, opts)
		} else {
			cell, lay, err = scenario.BuildShardCell(k, spec, opts, plan.districtShard, sh)
		}
		if err != nil {
			return nil, err
		}
		if s.coupler != nil {
			if !cell.Channel.Indexed() {
				panic("experiment: shard plan accepted a non-indexed channel")
			}
			if idx := s.coupler.AddShard(k); idx != sh {
				panic("experiment: shard index mismatch")
			}
		}
		s.kernels[sh], s.cells[sh], s.lay = k, cell, lay

		// Mirror the serial setup order exactly: faults first, then the
		// workload mix, then the drivers — only the driver set is
		// filtered to locally owned fleet slots.
		nv := len(cell.Vehicles)
		if !fs.Empty() {
			s.tl = fault.Plan(k, s.key, fs, duration, len(cell.BSes), nv)
			s.recs[sh] = newFaultRecorder(k, duration)
			scenario.InstallFaults(k, cell, &s.tl, s.recs[sh].restored)
		}
		kinds := make([]workload.Kind, nv)
		if spec.App == workload.MixedKind {
			kinds = workload.SplitKinds(k.RNG("workload", s.key, "mix"), s.appcfg.Mix, nv)
		} else {
			for i := range kinds {
				kinds[i] = spec.App
			}
		}
		if sh == 0 {
			s.kinds = kinds
		}
		s.drivers[sh] = make([]workload.Driver, nv)
		for i := 0; i < nv; i++ {
			if !cell.LocalVehicle(i) {
				continue
			}
			start := lay.Departs[i] + fleetWarm +
				appStagger(kinds[i], s.appcfg)*time.Duration(i)/time.Duration(nv)
			end := duration
			if start > end {
				start = end // departed too late: zero-length session
			}
			rng := k.RNG("workload", s.key, "veh", strconv.Itoa(i))
			d := workload.New(k, s.appcfg, kinds[i], workload.CellPort(cell, i), i, start, end, rng)
			if s.recs[sh] != nil {
				s.recs[sh].bind(cell, i, d)
			} else {
				workload.Bind(cell, i, d)
			}
			d.Start()
			s.drivers[sh][i] = d
		}
	}

	if plan.mode == shardModeHalo {
		// Halo-band sharding: one kernel, serial event order, with the
		// channel's per-broadcast delivery fan-out partitioned across
		// stripe-owned lanes. Engaged only after the whole cell is built
		// so every radio is attached (and the grid exists) first. The
		// channel can still decline — e.g. degenerate radio params keep
		// the full sweep — in which case the run proceeds serially and
		// the reason is surfaced like any other fallback.
		if got := s.cells[0].StartRadioShards(plan.eff); got == plan.eff {
			s.haloLanes = plan.eff
		} else {
			s.reason = "channel declined the stripe plan (not on the spatially indexed path)"
		}
	}

	if s.coupler != nil {
		// Couple the backplanes: the only subsystem that can carry an
		// event across districts, hence across shards. Its minimum
		// transit delay is the lookahead; a cross-shard send posts the
		// arrival at its exact already-computed timestamp into the
		// destination shard's mailbox.
		s.coupler.AddLookahead(s.cells[0].Backplane.MinTransitDelay())
		for sh := 0; sh < eff; sh++ {
			src := sh
			cells := s.cells
			coupler := s.coupler
			cells[sh].Backplane.SetCrossPost(func(dstShard int, arriveAt time.Duration, from, to uint16, payload []byte) {
				coupler.Post(src, dstShard, arriveAt, func() {
					cells[dstShard].Backplane.InjectArrive(from, to, payload)
				})
			})
		}
	}
	return s, nil
}

// attachMetrics installs one obs sampler per shard at the given cadence.
// Must be called after newFleetSession and before the first step — the
// samplers are pure observers (no RNG, no state mutation), so the run's
// outcome is byte-identical with or without them. onSample, when
// non-nil, fires synchronously on each shard's tick with a transient
// view of the sampled row.
func (s *fleetSession) attachMetrics(interval time.Duration, onSample func(shard int, at time.Duration, row []int64)) {
	par := s.eff
	if s.haloLanes > 1 {
		par = s.haloLanes // the meta records effective parallelism
	}
	meta := runMeta("fleetapp", s.key, s.seed, par, s.duration, s.cfg)
	s.samplers = make([]*obs.Sampler, s.eff)
	for sh := 0; sh < s.eff; sh++ {
		reg := buildRegistry(s.kernels[sh], s.cells[sh], s.drivers[sh], s.kinds)
		s.addShardSeries(reg, sh)
		s.samplers[sh] = obs.Attach(s.kernels[sh], reg, interval, s.until, meta)
		if onSample != nil {
			sh := sh
			s.samplers[sh].SetOnSample(func(at time.Duration, row []int64) { onSample(sh, at, row) })
		}
	}
}

// runAll drives the session to completion in one call (the batch path).
func (s *fleetSession) runAll() {
	if s.coupler == nil {
		s.kernels[0].RunUntil(s.until)
		s.cursor = s.until
	} else {
		s.stats = s.coupler.Run(s.until)
	}
	s.ran = true
}

// step advances the session through one more barrier and reports the
// barrier's sim time plus completion. On the serial path a barrier is
// one quantum of the kernel clock (successive RunUntil calls compose
// exactly); on the sharded path it is one coupler window, whose command
// sequence is invariant under pausing (see sim.CoupledRun).
func (s *fleetSession) step(quantum time.Duration) (time.Duration, bool) {
	if s.coupler == nil {
		next := s.cursor + quantum
		if next > s.until {
			next = s.until
		}
		s.kernels[0].RunUntil(next)
		s.cursor = next
		if next >= s.until {
			s.ran = true
		}
		return next, s.ran
	}
	if s.crun == nil {
		s.crun = s.coupler.Begin(s.until)
	}
	t, done := s.crun.Step()
	if done {
		s.stats = s.crun.Finish()
		s.ran = true
	}
	return t, done
}

// recording merges the per-shard sampler recordings into the run-wide
// view (elementwise sums over an identical schema). Nil when metrics
// were never attached.
func (s *fleetSession) recording() *obs.Recording {
	if s.samplers == nil {
		return nil
	}
	recs := make([]*obs.Recording, len(s.samplers))
	for i, sp := range s.samplers {
		recs[i] = sp.Recording()
	}
	merged, err := obs.Merge(recs)
	if err != nil {
		panic("experiment: shard recordings diverged: " + err.Error())
	}
	return merged
}

// finish assembles the FleetAppRun, merging per-shard state in global
// node order so every float accumulation and slice append happens in
// exactly the serial iteration order.
func (s *fleetSession) finish() *FleetAppRun {
	if !s.ran {
		panic("experiment: fleet session finish before completion")
	}
	nv := len(s.cells[0].Vehicles)
	run := &FleetAppRun{
		SpecKey:  s.key,
		App:      s.spec.App,
		BSCount:  len(s.cells[0].BSes),
		Vehicles: nv,
		Duration: s.duration,
	}
	vehOwner := func(i int) int {
		if s.districtShard == nil {
			return 0
		}
		return s.districtShard[s.lay.VehDistrict[i]]
	}
	bsOwner := func(i int) int {
		if s.districtShard == nil {
			return 0
		}
		return s.districtShard[s.lay.BSDistrict[i]]
	}
	run.PerVehicle = make([]workload.Metrics, nv)
	for i := 0; i < nv; i++ {
		run.PerVehicle[i] = s.drivers[vehOwner(i)][i].Stop()
	}
	run.Apps = workload.Aggregate(run.PerVehicle)
	for sh := 0; sh < s.eff; sh++ {
		st := s.cells[sh].Channel.Stats()
		run.Transmissions += st.Transmissions
		run.Collisions += st.Collisions
	}
	if s.recs[0] != nil {
		rec := s.recs[0]
		if s.eff > 1 {
			rec = mergeFaultRecorders(s.recs)
		}
		run.Faults = rec.report(s.tl)
	}

	// Occupancy sample: read-only with respect to the metrics above (the
	// drivers have already stopped), so it cannot perturb any report.
	var nbr []uint16
	for i := range s.cells[0].BSes {
		c := s.cells[bsOwner(i)]
		bs := c.BSes[i]
		now := c.K.Now()
		run.FreshPeersBS += float64(len(bs.Probs().FreshLocalPeers(bs.Addr(), now)))
		run.ReportBS += float64(len(bs.Probs().Report(bs.Addr(), now)))
		nbr = bs.MAC().Neighbors(nbr[:0])
		run.GridNbrsBS += float64(len(nbr))
	}
	if n := float64(run.BSCount); n > 0 {
		run.FreshPeersBS /= n
		run.ReportBS /= n
		run.GridNbrsBS /= n
	}
	for i := 0; i < nv; i++ {
		run.AuxPerVeh += float64(s.cells[vehOwner(i)].Vehicles[i].AuxCount())
	}
	if nv > 0 {
		run.AuxPerVeh /= float64(nv)
	}
	assembleLink(run, s.appcfg.CBRSlot)

	if s.coupler != nil {
		run.ShardExec = make([]ShardRunStats, s.eff)
		for sh := 0; sh < s.eff; sh++ {
			nb, nvl := 0, 0
			for i := range s.cells[sh].BSLocal {
				if s.cells[sh].BSLocal[i] {
					nb++
				}
			}
			for i := range s.cells[sh].VehLocal {
				if s.cells[sh].VehLocal[i] {
					nvl++
				}
			}
			run.ShardExec[sh] = ShardRunStats{
				Shard: sh, BSes: nb, Vehicles: nvl,
				Events: s.stats[sh].Events, Rounds: s.stats[sh].Rounds,
				Stalled:  s.stats[sh].StalledRounds,
				HaloSent: s.stats[sh].Posted, HaloRecv: s.stats[sh].Injected,
			}
		}
		logShards(ShardLogEntry{SpecKey: s.key, Shards: s.eff, Stats: run.ShardExec})
	}
	if s.haloLanes > 1 {
		// Halo execution bookkeeping mirrors the coupled fields: Events
		// counts in-cutoff delivery computations, Rounds the broadcast
		// dispatches, Stalled the dispatches a lane sat idle. All of it is
		// a pure function of the simulation (stripe ownership and the
		// candidate sets are deterministic), so ShardExec is reproducible
		// across hosts despite measuring parallel execution.
		ch := s.cells[0].Channel
		bsN, vehN := s.cells[0].RadioLaneCounts()
		run.ShardExec = make([]ShardRunStats, s.haloLanes)
		for i := range run.ShardExec {
			ls := ch.LaneStat(i)
			run.ShardExec[i] = ShardRunStats{
				Shard: i, BSes: bsN[i], Vehicles: vehN[i],
				Events: ls.Computed, Rounds: int(ls.Rounds), Stalled: int(ls.Idle),
				HaloSent: int(ls.HaloSent), HaloRecv: int(ls.HaloRecv),
			}
		}
		logShards(ShardLogEntry{SpecKey: s.key, Shards: s.haloLanes, Halo: true, Stats: run.ShardExec})
		s.cells[0].StopRadioShards()
	}
	if s.reason != "" && s.requested > 1 {
		// The caller asked for sharding and did not get it: say why on the
		// shard log (the CLIs drain it to stderr) instead of silently
		// having run serial.
		logShards(ShardLogEntry{SpecKey: s.key, Shards: s.requested, Reason: s.reason})
	}
	return run
}

// runFleetApp is the shared one-shot driver behind the batch runners:
// build, optionally attach metrics, run to completion, assemble. A
// positive interval publishes the run's recording to the package sink
// (TakeRecordings).
func runFleetApp(seed int64, spec scenario.Spec, cfg core.Config, duration time.Duration, shards int, interval time.Duration) (*FleetAppRun, error) {
	s, err := newFleetSession(seed, spec, cfg, duration, shards)
	if err != nil {
		return nil, err
	}
	if interval > 0 {
		s.attachMetrics(interval, nil)
	}
	s.runAll()
	run := s.finish()
	logRecording(s.recording())
	return run, nil
}

// --- Live (stepped) execution ---------------------------------------------

// LiveRun is an interactively stepped fleet execution for the serving
// frontend: build once, advance in barrier-aligned steps, observe live
// metrics between steps, and finish into the identical FleetAppRun the
// batch runners produce for the same (seed, spec, cfg, duration,
// shards). Not safe for concurrent use; the serve layer serializes
// access per session.
type LiveRun struct {
	s       *fleetSession
	quantum time.Duration
	now     time.Duration
	done    bool
	run     *FleetAppRun
}

// StartLiveRun builds a fleet session for stepped execution. interval
// is the metrics sampling cadence (and the serial stepping quantum);
// non-positive disables sampling and steps in one-second quanta.
// onSample, when non-nil, fires on each shard's sampling tick.
func StartLiveRun(seed int64, spec scenario.Spec, cfg core.Config, duration time.Duration, shards int,
	interval time.Duration, onSample func(shard int, at time.Duration, row []int64)) (*LiveRun, error) {
	s, err := newFleetSession(seed, spec, cfg, duration, shards)
	if err != nil {
		return nil, err
	}
	quantum := interval
	if quantum <= 0 {
		quantum = time.Second
	}
	if interval > 0 {
		s.attachMetrics(interval, onSample)
	}
	return &LiveRun{s: s, quantum: quantum}, nil
}

// Step advances through one barrier; it returns the reached sim time
// and whether the run is complete. Calling Step after completion is a
// no-op returning (end, true).
func (l *LiveRun) Step() (time.Duration, bool) {
	if l.done {
		return l.now, true
	}
	t, done := l.s.step(l.quantum)
	l.now, l.done = t, done
	return t, done
}

// Now returns the last barrier's sim time.
func (l *LiveRun) Now() time.Duration { return l.now }

// Done reports whether the run has completed.
func (l *LiveRun) Done() bool { return l.done }

// End returns the session's final sim time (duration plus the drain
// second, matching the batch runners).
func (l *LiveRun) End() time.Duration { return l.s.until }

// Shards returns the kernel/sampler count (1 = serial or halo-sharded):
// the number of independent metric-sample contributors per tick, which
// is what the serve layer's merge threshold counts.
func (l *LiveRun) Shards() int { return l.s.eff }

// Lanes returns the halo delivery-lane count (0 when the run is not
// halo-sharded). Lane balance is visible live through the shard.* series.
func (l *LiveRun) Lanes() int { return l.s.haloLanes }

// SpecKey returns the scenario's canonical key.
func (l *LiveRun) SpecKey() string { return l.s.key }

// Series returns the registry schema (nil when sampling is disabled).
func (l *LiveRun) Series() []obs.SeriesDef {
	if l.s.samplers == nil {
		return nil
	}
	return l.s.samplers[0].Recording().Series
}

// Recording returns the merged run-wide recording so far. The merge is
// only coherent between steps (samplers are quiescent then); the serve
// layer calls it with the session lock held.
func (l *LiveRun) Recording() *obs.Recording { return l.s.recording() }

// Finish assembles the final FleetAppRun (idempotent). It panics if the
// run has not completed.
func (l *LiveRun) Finish() *FleetAppRun {
	if l.run == nil {
		l.run = l.s.finish()
	}
	return l.run
}
