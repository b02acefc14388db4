package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/experiment"
	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/scenario"
)

// workload is one set of inputs. The seed is the only thing a run
// varies; the program sees the scenario spec (or the paper set) and the
// seed, never the workload's name.
type workload struct {
	name string
	// spec is the scenario.Parse input of a fleet workload; empty for the
	// paper set.
	spec string
	// dur is the simulated duration of one fleet run.
	dur time.Duration
	// scale is the paper set's duration and trial multiplier.
	scale float64
}

// parallel is the shard and engine-worker count of a traced run's
// parallel iterations: halo-band radio lanes on the un-districted city,
// coupled kernels on the districted one, engine workers on the paper
// set. Measured iterations run serially (see measure).
const parallel = 2

// The city is the scale-radio sweep's constant-density grid-metro region
// (54 basestations per 2400×1500 m) at 1,234 basestations plus the
// sweep's fixed 16-vehicle CBR fleet: 1,250 radios, un-districted, so
// the radio layer runs its spatially indexed path and every basestation
// gossips into the core ProbTable. Five simulated seconds let every
// vehicle depart and most of them reach their application phase.
var workloads = []workload{
	{name: "city", spec: "grid-metro,bs=1234,w=11473,h=7171", dur: 5 * time.Second},
	{name: "districts", spec: "metro-districts,app=mixed,faults=chaos,vehicles=48", dur: 30 * time.Second},
	{name: "paper", scale: 0.05},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func (w workload) describe() string {
	if w.spec == "" {
		return fmt.Sprintf("paper set %v scale=%g", experiment.PaperOrder(), w.scale)
	}
	return fmt.Sprintf("scenario=%s protocol=vifi duration=%v", w.spec, w.dur)
}

// iteration is one complete run of a workload: its rendered report and
// what was measured around the public calls that produced it.
type iteration struct {
	report []byte
	// Spans around the public calls. The heap probe between step and
	// finish is outside all of them.
	setup, step, finish, render time.Duration
	// ticks holds, for a fleet run, the wall time of each simulated
	// second across Step calls; for the paper set, the time from the
	// first Run call until each report was ready.
	ticks []time.Duration
	// cpu is the process's user plus system CPU inside the spans.
	cpu time.Duration
	// liveHeap is the heap after a forced GC once the last step is done.
	liveHeap uint64
	// allocBytes and allocs are the run's allocation totals.
	allocBytes, allocs uint64
	// counts are work counts read from the obs recordings.
	counts map[string]float64
	// radios is the fleet run's basestations plus vehicles.
	radios int
	// jobs and hits are the paper engine's executed jobs and run-cache
	// hits.
	jobs, hits int64
	// prof holds the run's CPU and heap profiles, nil when untraced.
	prof *tracer
}

func (it *iteration) wall() time.Duration { return it.setup + it.step + it.finish + it.render }

// mark is one point on the wall and CPU clocks.
type mark struct {
	wall time.Time
	cpu  time.Duration
}

func now() mark { return mark{time.Now(), cpuTime()} }

// runOnce executes one complete run at parallelism par. A non-nil tracer
// profiles it. A panic in the program comes back as an error.
func (w workload) runOnce(seed int64, par int, tr *tracer) (it *iteration, err error) {
	defer func() {
		if p := recover(); p != nil {
			tr.pause()
			it, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	// Start every run from an empty heap, as a fresh process would:
	// garbage left by the previous run would otherwise decide when this
	// one's collections fall.
	runtime.GC()
	if w.spec == "" {
		return w.runPaper(seed, par, tr)
	}
	return w.runFleet(seed, par, tr)
}

// probe forces a GC and reads the live heap, outside the timed spans.
// A traced run stops its CPU profile across it and records the heap
// profile.
func probe(tr *tracer) uint64 {
	tr.pause()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tr.heap()
	tr.resume()
	return ms.HeapAlloc
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func (w workload) runFleet(seed int64, par int, tr *tracer) (*iteration, error) {
	spec, err := scenario.Parse(w.spec)
	if err != nil {
		return nil, err
	}
	it := &iteration{}
	mem0 := readMem()
	tr.start()
	m0 := now()
	live, err := experiment.StartLiveRun(seed, spec, core.DefaultConfig(), w.dur, par, time.Second, nil)
	if err != nil {
		tr.pause()
		return nil, err
	}
	m1 := now()
	last, next := m1.wall, time.Second
	for {
		t, done := live.Step()
		for ; t >= next; next += time.Second {
			at := time.Now()
			it.ticks = append(it.ticks, at.Sub(last))
			last = at
		}
		if done {
			break
		}
	}
	m2 := now()
	it.liveHeap = probe(tr)
	m3 := now()
	rec := live.Recording()
	run := live.Finish()
	m4 := now()
	var buf bytes.Buffer
	experiment.FprintFleetReport(&buf, run, "vifi", w.dur, seed)
	m5 := now()
	tr.pause()
	experiment.TakeShardLog() // the per-shard diagnostics are not part of the report
	mem1 := readMem()

	it.report = buf.Bytes()
	it.setup, it.step = m1.wall.Sub(m0.wall), m2.wall.Sub(m1.wall)
	it.finish, it.render = m4.wall.Sub(m3.wall), m5.wall.Sub(m4.wall)
	it.cpu = m2.cpu - m0.cpu + m5.cpu - m3.cpu
	it.allocBytes, it.allocs = mem1.TotalAlloc-mem0.TotalAlloc, mem1.Mallocs-mem0.Mallocs
	it.counts = countsOf([]*obs.Recording{rec})
	it.radios = run.BSCount + run.Vehicles
	it.prof = tr
	return it, nil
}

func (w workload) runPaper(seed int64, par int, tr *tracer) (*iteration, error) {
	ids := experiment.PaperOrder()
	it := &iteration{}
	mem0 := readMem()
	tr.start()
	m0 := now()
	eng := experiment.NewEngine(par)
	eng.EnableMetrics(time.Second)
	m1 := now()
	reps := make([]*experiment.Report, len(ids))
	errs := make([]error, len(ids))
	ready := make([]time.Duration, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("%s: panic: %v", id, p)
				}
			}()
			reps[i], errs[i] = experiment.Run(id, experiment.Options{Seed: seed, Scale: w.scale, Engine: eng})
			ready[i] = time.Since(m1.wall)
		}()
	}
	wg.Wait()
	m2 := now()
	for _, err := range errs {
		if err != nil {
			tr.pause()
			return nil, err
		}
	}
	it.liveHeap = probe(tr)
	m3 := now()
	recs := experiment.TakeRecordings()
	experiment.TakeShardLog()
	it.jobs, it.hits = eng.Jobs(), eng.CacheHits()
	m4 := now()
	var buf bytes.Buffer
	for _, rep := range reps {
		buf.WriteString(rep.String())
		buf.WriteByte('\n')
	}
	m5 := now()
	tr.pause()
	mem1 := readMem()

	it.report = buf.Bytes()
	it.setup, it.step = m1.wall.Sub(m0.wall), m2.wall.Sub(m1.wall)
	it.finish, it.render = m4.wall.Sub(m3.wall), m5.wall.Sub(m4.wall)
	it.cpu = m2.cpu - m0.cpu + m5.cpu - m3.cpu
	it.allocBytes, it.allocs = mem1.TotalAlloc-mem0.TotalAlloc, mem1.Mallocs-mem0.Mallocs
	it.counts = countsOf(recs)
	it.ticks = ready
	it.prof = tr
	return it, nil
}

// countsOf sums the final sample of every recording: counters give the
// run's totals, gauges the end-of-run occupancy. sim.heap is a gauge of
// pending events whose peak is what matters, so it becomes
// sim.heap_peak, the largest merged sample of any one recording.
func countsOf(recs []*obs.Recording) map[string]float64 {
	out := map[string]float64{}
	for _, r := range recs {
		if r == nil || r.Rows() == 0 {
			continue
		}
		last := r.Row(r.Rows() - 1)
		for j, d := range r.Series {
			if d.Name == "sim.heap" {
				for _, v := range r.Column(d.Name) {
					out["sim.heap_peak"] = max(out["sim.heap_peak"], float64(v))
				}
				continue
			}
			out[d.Name] += float64(last[j])
		}
	}
	return out
}
