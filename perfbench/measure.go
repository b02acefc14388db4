package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"syscall"
	"time"

	"github.com/vanlan/vifi/internal/experiment"
)

// iterDeadline fails any single run that takes longer: the workloads
// take seconds, so one this slow is hung or badly broken.
const iterDeadline = 60 * time.Second

//go:embed reference.json
var referenceJSON []byte

// loadReferences returns the SHA-256 of each workload's report at
// defaultSeed, as recorded in reference.json.
func loadReferences() (map[string]string, error) {
	refs := map[string]string{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

func digest(report []byte) string {
	sum := sha256.Sum256(report)
	return hex.EncodeToString(sum[:])
}

// tally checks reports against a reference digest per seed and counts
// failures: an error or panic, a run over iterDeadline, or a report whose
// digest differs from its seed's reference. The first report of a seed
// without a recorded digest becomes that seed's reference.
type tally struct {
	want              map[int64]string
	attempted, failed int
	errs              []string
}

// check records one attempted run at the given seed and reports whether
// it passed.
func (t *tally) check(what string, seed int64, it *iteration, err error) bool {
	t.attempted++
	if err == nil && t.want[seed] == "" {
		t.want[seed] = digest(it.report)
	}
	switch {
	case err != nil:
		t.fail("%s: %v", what, err)
	case it.wall() > iterDeadline:
		t.fail("%s: took %v, over the %v deadline", what, it.wall(), iterDeadline)
	case digest(it.report) != t.want[seed]:
		t.fail("%s: report sha256 %s, want %s", what, digest(it.report), t.want[seed])
	default:
		return true
	}
	return false
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	t.errs = append(t.errs, fmt.Sprintf(format, args...))
}

func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// result is everything one process measured.
type result struct {
	tally tally
	// iters are the passing serial iterations; profiled ones carry a
	// tracer.
	iters []*iteration
	// par are a traced run's passing parallel iterations.
	par []*iteration
}

// seedCycle is how many seeds an untraced run's iterations cycle
// through. The paper set's work varies by ±20% from seed to seed, at any
// scale; a run that measures several seeds reports a median that varies
// far less between runs, and still repeats every seed to check that its
// reports are deterministic.
const seedCycle = 4

// iterSeed is the seed of an untraced run's i-th iteration: the run's own
// seed first, then seeds derived from it that no nearby seed shares.
func iterSeed(seed int64, i int) int64 {
	return seed + int64(i%seedCycle)*1_000_003
}

// measure runs the workload for the wall-time budget.
//
// It first makes a serial run at the run's seed, whose report is that
// seed's reference unless want, the digest reference.json records for
// the default seed, is given. The run also warms the process before
// anything is timed, at every seed alike.
//
// The measured iterations are serial: one shard, one engine worker. On a
// 2-core host shared with other tenants, steal time stalls whichever
// lane or kernel a barrier waits for, and 2-way runs spread too widely
// between runs to be gated. An untraced run cycles its iterations
// through seedCycle seeds. A traced run stays on its seed and cycles
// through a plain, a profiled and a 2-way iteration: the profile gives
// the per-layer figures, and the neighbouring plain and 2-way iterations
// give the run's own trace overhead and parallel-over-serial ratio.
// Every report, 2-way ones included, must equal its seed's reference.
func measure(w workload, seed int64, budget time.Duration, traced bool, want string) *result {
	r := &result{tally: tally{want: map[int64]string{seed: want}}}
	ref, err := w.runOnce(seed, 1, nil)
	if !r.tally.check("serial reference run", seed, ref, err) {
		return r
	}
	cycle := 1
	if traced {
		cycle = 3
	}
	start := time.Now()
	for i := 0; ; i++ {
		s, par, tr := seed, 1, (*tracer)(nil)
		switch {
		case !traced:
			s = iterSeed(seed, i)
		case i%cycle == 1:
			tr = &tracer{}
		case i%cycle == 2:
			par = parallel
		}
		t0 := time.Now()
		it, err := w.runOnce(s, par, tr)
		if r.tally.check(fmt.Sprintf("iteration %d (seed %d)", i, s), s, it, err) {
			if par > 1 {
				r.par = append(r.par, it)
			} else {
				r.iters = append(r.iters, it)
			}
		}
		// Start another iteration only if one as long as the last still
		// fits in the budget.
		if i+1 >= cycle && time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	return r
}

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares, in the same order.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"sim_second_p50_ms", "ms", "lower"},
	{"sim_second_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"allocs_m", "M", "lower"},
}

// untraced returns the iterations that ran without a profiler.
func (r *result) untraced() []*iteration {
	var out []*iteration
	for _, it := range r.iters {
		if it.prof == nil {
			out = append(out, it)
		}
	}
	return out
}

func (r *result) traced() []*iteration {
	var out []*iteration
	for _, it := range r.iters {
		if it.prof != nil {
			out = append(out, it)
		}
	}
	return out
}

// iterValue extracts one end-to-end metric from one iteration; ok is
// false for metrics that are not per-iteration.
func iterValue(name string, it *iteration) (float64, bool) {
	switch name {
	case "setup_s":
		return it.setup.Seconds(), true
	case "wall_s":
		return it.wall().Seconds(), true
	case "cpu_s":
		return it.cpu.Seconds(), true
	case "live_heap_mb":
		return float64(it.liveHeap) / 1e6, true
	case "alloc_mb":
		return float64(it.allocBytes) / 1e6, true
	case "allocs_m":
		return float64(it.allocs) / 1e6, true
	case "sim_second_p50_ms":
		return tickPercentile(it, 0.5), true
	case "sim_second_p90_ms":
		return tickPercentile(it, 0.9), true
	}
	return 0, false
}

// tickPercentile is a percentile of one iteration's ticks in ms. Taking
// the median of it over iterations, rather than pooling every tick,
// keeps a burst of host contention during one iteration out of the tail.
func tickPercentile(it *iteration, p float64) float64 {
	ms := make([]float64, len(it.ticks))
	for i, t := range it.ticks {
		ms[i] = float64(t) / 1e6
	}
	return percentile(ms, p)
}

// iterValues returns a metric's per-iteration values over the untraced
// iterations, for the quartiles printed beside its median.
func (r *result) iterValues(name string) []float64 {
	var vs []float64
	for _, it := range r.untraced() {
		if v, ok := iterValue(name, it); ok {
			vs = append(vs, v)
		}
	}
	return vs
}

// endToEnd computes the end-to-end metrics: medians over the untraced
// iterations, and the process's peak RSS.
func (r *result) endToEnd() map[string]float64 {
	ms := zeroMetrics(endToEnd)
	if len(r.untraced()) == 0 {
		return ms
	}
	for _, d := range endToEnd {
		if vs := r.iterValues(d.name); len(vs) > 0 {
			ms[d.name] = median(vs)
		}
	}
	ms["peak_rss_mb"] = peakRSS() / 1e6
	return ms
}

// figureSpans gives the median time to each paper report; nil for the
// fleet workloads.
func figureSpans(w workload, its []*iteration) map[string]float64 {
	if w.spec != "" || len(its) == 0 {
		return nil
	}
	out := map[string]float64{}
	for i, id := range experiment.PaperOrder() {
		vs := make([]float64, len(its))
		for j, it := range its {
			vs[j] = it.ticks[i].Seconds()
		}
		out[id] = median(vs)
	}
	return out
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

// percentile interpolates linearly between the closest ranks.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// cpuTime is the process's user plus system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's resident-set high-water mark in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}
