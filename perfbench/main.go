// Command perfbench is the repository's benchmark. One process runs one
// workload for a fixed wall-time budget, checks every report it renders,
// and prints its metrics by name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload city --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics: host time,
// CPU, memory and per-simulated-second latency, as medians over the
// run's iterations. With --trace 1 it carries the per-layer metrics:
// CPU and heap charged to each internal/<pkg> from runtime/pprof
// profiles of this process, work counts from the obs registry, and spans
// around the public calls. The program is driven only through its
// public entry points (scenario.Parse, experiment.StartLiveRun,
// LiveRun.Step/Recording/Finish, experiment.FprintFleetReport and
// experiment.Run on an experiment.NewEngine), so no program code is
// instrumented. METRICS.md says which end-to-end metric each per-layer
// metric should move, and on which workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/vanlan/vifi/internal/experiment"
)

// defaultSeed is the seed whose report digests reference.json records.
const defaultSeed = 1

// watchdog bounds a whole process: a run that has not printed its result
// by then prints a failed one and exits.
const watchdog = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "simulation seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 35, "wall-time budget of the measured iterations")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 profiles the run and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	traced := *trace == 1
	if traced {
		if err := checkParallelism(parallel, runtime.NumCPU(), runtime.GOMAXPROCS(0)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	refs, err := loadReferences()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	want := ""
	if *seed == defaultSeed {
		want = refs[w.name]
	}

	out := &printer{w: stdout}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# host %s\n", hostStamp("."))
	fmt.Fprintf(stdout, "# input %s\n", w.describe())
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	timer := time.AfterFunc(watchdog, func() {
		out.result(false, 1, 1, defs, zeroMetrics(defs))
		os.Exit(1)
	})
	defer timer.Stop()

	res := measure(w, *seed, time.Duration(*seconds)*time.Second, traced, want)
	for _, e := range res.tally.errs {
		fmt.Fprintln(stdout, "# FAILED:", e)
	}
	var ms map[string]float64
	if traced {
		ms = res.perLayer()
	} else {
		ms = res.endToEnd()
	}
	res.printTable(stdout, w, *seed, traced, defs, ms)
	t := res.tally
	out.result(t.failed == 0 && t.attempted > 0, t.attempted, t.failed, defs, ms)
	return 0
}

// checkParallelism refuses a workload that would run more shards, lanes
// or engine workers than the host has processors: its host-time figures
// would measure oversubscription, not the program.
func checkParallelism(par, nproc, maxprocs int) error {
	if par > nproc || par > maxprocs {
		return fmt.Errorf("workload needs %d-way parallelism but nproc=%d GOMAXPROCS=%d", par, nproc, maxprocs)
	}
	return nil
}

// printer writes the result line exactly once, whether the run finishes
// or the watchdog fires first.
type printer struct {
	w    io.Writer
	once sync.Once
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result prints the metrics defs names, with their values from ms.
func (p *printer) result(correct bool, attempted, failed int, defs []metricDef, ms map[string]float64) {
	p.once.Do(func() {
		line := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
		for _, d := range defs {
			v := ms[d.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			panic(err) // plain floats and strings always marshal
		}
		fmt.Fprintln(p.w, string(b))
	})
}

func zeroMetrics(defs []metricDef) map[string]float64 {
	ms := make(map[string]float64, len(defs))
	for _, d := range defs {
		ms[d.name] = 0
	}
	return ms
}

// printTable prints the run's metrics for people, before the result line:
// each metric with its unit, and for end-to-end metrics the quartiles of
// the per-iteration values behind the median.
func (r *result) printTable(out io.Writer, w workload, seed int64, traced bool, defs []metricDef, ms map[string]float64) {
	fmt.Fprintf(out, "# %d iterations measured, %d reports checked, %d failed (failed_frac %.4g)\n",
		len(r.iters)+len(r.par), r.tally.attempted, r.tally.failed, r.tally.failedFrac())
	fmt.Fprintf(out, "# report sha256 %s\n", r.tally.want[seed])
	if !traced {
		seeds := make([]int64, seedCycle)
		for i := range seeds {
			seeds[i] = iterSeed(seed, i)
		}
		fmt.Fprintf(out, "# serial iterations cycle through seeds %v\n", seeds)
	}
	fmt.Fprintf(out, "# serial iteration wall_s: %s\n", wallList(r.iters))
	if len(r.par) > 0 {
		fmt.Fprintf(out, "# %d-way iteration wall_s: %s\n", parallel, wallList(r.par))
	}
	for _, d := range defs {
		q := ""
		if vs := r.iterValues(d.name); len(vs) > 1 && !traced {
			q = fmt.Sprintf("  [q1 %.4g, q3 %.4g over %d]", percentile(vs, 0.25), percentile(vs, 0.75), len(vs))
		}
		fmt.Fprintf(out, "%-32s %14.6g %-6s%s\n", d.name, ms[d.name], d.unit, q)
	}
	its := r.untraced()
	if traced {
		its = r.traced()
	}
	spans := figureSpans(w, its)
	for _, id := range experiment.PaperOrder() {
		if v, ok := spans[id]; ok {
			fmt.Fprintf(out, "%-32s %14.6g %-6s (time to the report, median)\n", "span."+id+"_s", v, "s")
		}
	}
}

func wallList(its []*iteration) string {
	walls := make([]string, len(its))
	for i, it := range its {
		walls[i] = fmt.Sprintf("%.3f", it.wall().Seconds())
		if it.prof != nil {
			walls[i] += "(profiled)"
		}
	}
	return strings.Join(walls, " ")
}
