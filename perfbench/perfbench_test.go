package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestFlippedByteFails(t *testing.T) {
	report := []byte("scenario=grid protocol=vifi duration=5s seed=1\nrx collisions: 3 over 9 transmissions\n")
	tl := tally{want: map[int64]string{1: digest(report)}}
	if !tl.check("original", 1, &iteration{report: report}, nil) {
		t.Fatalf("the reference report itself failed: %v", tl.errs)
	}
	for i := range report {
		flipped := bytes.Clone(report)
		flipped[i] ^= 0x01
		if tl.check("flipped", 1, &iteration{report: flipped}, nil) {
			t.Fatalf("report with byte %d flipped passed", i)
		}
	}
	if tl.attempted != len(report)+1 || tl.failed != len(report) {
		t.Fatalf("attempted %d failed %d, want %d and %d", tl.attempted, tl.failed, len(report)+1, len(report))
	}
}

func TestFirstReportOfSeedIsReference(t *testing.T) {
	tl := tally{want: map[int64]string{}}
	a, b := &iteration{report: []byte("a\n")}, &iteration{report: []byte("b\n")}
	if !tl.check("first", 7, a, nil) || !tl.check("repeat", 7, a, nil) || !tl.check("other seed", 8, b, nil) {
		t.Fatalf("consistent reports failed: %v", tl.errs)
	}
	if tl.check("changed", 7, b, nil) {
		t.Fatal("a seed's report changed between iterations and passed")
	}
}

func TestIterSeedCycles(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < seedCycle; i++ {
		seen[iterSeed(5, i)] = true
	}
	if len(seen) != seedCycle || !seen[5] || iterSeed(5, seedCycle) != 5 {
		t.Fatalf("iterSeed(5, 0..%d) = %v", seedCycle, seen)
	}
}

func TestDeadlineFails(t *testing.T) {
	report := []byte("ok\n")
	tl := tally{want: map[int64]string{1: digest(report)}}
	if tl.check("slow", 1, &iteration{report: report, step: iterDeadline + time.Second}, nil) {
		t.Fatal("a run over the deadline passed")
	}
}

func TestLayerOf(t *testing.T) {
	const m = modulePrefix
	cases := []struct {
		stack []string
		want  string
	}{
		// Library math under a layer's frame belongs to that layer.
		{[]string{"math.Exp", m + "radio.(*Channel).meanReception", m + "radio.(*Channel).broadcastIndexed", m + "sim.(*Kernel).RunUntil", "main.main"}, "radio"},
		// The innermost internal/ frame wins over its callers.
		{[]string{"runtime.memmove", m + "core.(*ProbTable).slot", m + "core.(*Node).onBeacon", m + "sim.(*Kernel).RunUntil"}, "core"},
		// Closures and generic instantiations keep their package.
		{[]string{m + "experiment.goJob[...].func1", "runtime.goexit"}, "experiment"},
		{[]string{m + "sim.(*Gang).worker.func1", "runtime.goexit"}, "sim"},
		// Garbage collection is its own layer, even as a mark assist
		// inside a layer's allocation.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.gc"},
		{[]string{"runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc", m + "core.(*ProbTable).slot"}, "runtime.gc"},
		// Scheduler and idle time without a layer frame is other.
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// protoEnc encodes just enough of profile.proto for the tests.
type protoEnc struct{ b []byte }

func (p *protoEnc) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoEnc) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoEnc) packed(field int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	p.bytes(field, inner)
}

func TestChargeSyntheticProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"math.Exp", modulePrefix + "radio.(*Channel).rssi", modulePrefix + "sim.(*Kernel).RunUntil", "runtime.gcBgMarkWorker"}
	var p protoEnc
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var v protoEnc
		v.varint(1, vt[0])
		v.varint(2, vt[1])
		p.bytes(1, v.b)
	}
	// Functions 1..4 name strings 5..8.
	for id := uint64(1); id <= 4; id++ {
		var f protoEnc
		f.varint(1, id)
		f.varint(2, id+4)
		p.bytes(5, f.b)
	}
	// Location 1 is math.Exp inlined into rssi; 2 is RunUntil; 3 is GC.
	for _, loc := range []struct {
		id    uint64
		funcs []uint64
	}{{1, []uint64{1, 2}}, {2, []uint64{3}}, {3, []uint64{4}}} {
		var l protoEnc
		l.varint(1, loc.id)
		for _, f := range loc.funcs {
			var line protoEnc
			line.varint(1, f)
			l.bytes(4, line.b)
		}
		p.bytes(4, l.b)
	}
	for _, s := range []struct {
		locs []uint64
		cpu  uint64
	}{{[]uint64{1, 2}, 30e6}, {[]uint64{2}, 20e6}, {[]uint64{3}, 10e6}, {[]uint64{1, 2, 2}, 5e6}} {
		var sp protoEnc
		if len(s.locs) > 2 {
			sp.packed(1, s.locs...)
		} else {
			for _, l := range s.locs {
				sp.varint(1, l)
			}
		}
		sp.packed(2, 1, s.cpu)
		p.bytes(2, sp.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}

	prof, err := parseProfile(p.b)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	if err := prof.charge(got, "cpu"); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"radio": 35e6, "sim": 20e6, "runtime.gc": 10e6}
	if len(got) != len(want) {
		t.Fatalf("charged %v, want %v", got, want)
	}
	for l, v := range want {
		if got[l] != v {
			t.Errorf("%s charged %d, want %d (all: %v)", l, got[l], v, got)
		}
	}
	if err := prof.charge(got, "inuse_space"); err == nil {
		t.Error("charging a sample type the profile lacks did not fail")
	}
}

// sink keeps the test's allocation live until its heap profile is taken.
var sink [][]byte

func TestParseRuntimeHeapProfile(t *testing.T) {
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	tr := &tracer{}
	tr.start()
	tr.pause()
	tr.heap()
	if tr.err != nil {
		t.Fatal(tr.err)
	}
	var total int64
	for _, b := range tr.inuse {
		total += b
	}
	// The test's own frames are not in a layer, so its 4 MiB are other.
	if tr.inuse["other"] < 2<<20 || total < tr.inuse["other"] {
		t.Fatalf("in-use heap by layer %v, want at least 2 MiB in other", tr.inuse)
	}
	sink = nil
}

func TestCheckParallelism(t *testing.T) {
	if err := checkParallelism(2, 2, 2); err != nil {
		t.Errorf("2-way on 2 processors refused: %v", err)
	}
	if checkParallelism(2, 1, 1) == nil || checkParallelism(2, 4, 1) == nil {
		t.Error("2-way on 1 processor accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, the code's metric lists and
// reference.json in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(bj.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(names))
	}
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range bj.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, names[i])
		}
		if len(refs[w.Name]) != 64 {
			t.Errorf("reference.json has no digest for %q", w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, code %+v", kind, i, m, want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// TestEveryWorkloadShortRun makes a very short traced run of every
// workload: the serial reference, then one plain, one profiled and one
// 2-way iteration, each of whose reports must equal the reference.
func TestEveryWorkloadShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := measure(w, 7, time.Nanosecond, true, "")
			if r.tally.failed != 0 || r.tally.attempted != 4 || len(r.traced()) != 1 || len(r.par) != 1 {
				t.Fatalf("%d reports checked, %d profiled and %d 2-way iterations, failures: %v",
					r.tally.attempted, len(r.traced()), len(r.par), r.tally.errs)
			}
			if err := r.traced()[0].prof.err; err != nil {
				t.Fatal(err)
			}
			for name, v := range r.endToEnd() {
				if v <= 0 {
					t.Errorf("%s = %v, want a positive value", name, v)
				}
			}
			ms := r.perLayer()
			if len(ms) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(ms), len(perLayer))
			}
			var sum float64
			for _, l := range cpuLayers {
				sum += ms[l+".cpu_s"]
			}
			if total := ms["profile.cpu_s"]; total <= 0 || sum < total*0.999 || sum > total*1.001 {
				t.Errorf("layer CPU sums to %v, profile total %v", sum, total)
			}
			want := []string{"sim.events", "radio.tx", "serial.wall_s", "parallel_over_serial", "lanes.balance"}
			if w.spec == "" {
				want = append(want, "experiment.jobs")
			} else {
				want = append(want, "shard.0.rounds", "shard.1.rounds")
			}
			for _, name := range want {
				if ms[name] <= 0 {
					t.Errorf("%s = %v, want a positive value", name, ms[name])
				}
			}
		})
	}
}

// TestDefaultSeedReference checks a workload's report at the default seed
// against its recorded digest.
func TestDefaultSeedReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	w, _ := lookupWorkload("districts")
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	it, err := w.runOnce(defaultSeed, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(it.report); got != refs[w.name] {
		t.Fatalf("districts report at seed %d has sha256 %s, reference.json %s", defaultSeed, got, refs[w.name])
	}
}
