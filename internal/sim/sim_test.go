package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(30*time.Millisecond, func() { order = append(order, 3) })
	k.At(10*time.Millisecond, func() { order = append(order, 1) })
	k.At(20*time.Millisecond, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if k.Now() != 30*time.Millisecond {
		t.Errorf("final time = %v, want 30ms", k.Now())
	}
	if k.EventsRun() != 3 {
		t.Errorf("events run = %d, want 3", k.EventsRun())
	}
}

func TestKernelFIFOAmongEqualTimes(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Second, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

// recordHandler appends its id to a shared log when it fires.
type recordHandler struct {
	id  int
	log *[]int
}

func (h *recordHandler) OnEvent() { *h.log = append(*h.log, h.id) }

func TestLateEventsRunAfterOrdinaryInKeyOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	rec := func(id int) *recordHandler { return &recordHandler{id: id, log: &order} }
	at := 10 * time.Millisecond
	// Late events first, keys out of order; ordinary events at the same
	// instant scheduled after them, one of them from inside an earlier
	// event so its seq is as late as it gets.
	k.AtHandlerLate(at, 9, rec(109))
	k.AtHandlerLate(at, 2, rec(102))
	k.AtHandler(at, rec(1))
	k.AtHandlerLate(at, 5, rec(105))
	k.At(at/2, func() {
		k.AtHandler(at, rec(2))
		k.AtHandlerLate(at, 3, rec(103))
	})
	k.AtHandlerLate(at-1, 7, rec(100))
	k.Run()
	want := []int{100, 1, 2, 102, 103, 105, 109}
	if !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestLateTimerStopAndPending(t *testing.T) {
	k := NewKernel(1)
	var order []int
	tm := k.AtHandlerLate(time.Second, 4, &recordHandler{id: 4, log: &order})
	other := k.AtHandlerLate(time.Second, 5, &recordHandler{id: 5, log: &order})
	if !tm.Pending() || !other.Pending() {
		t.Fatal("late timers should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending late timer")
	}
	if tm.Stop() || tm.Pending() {
		t.Error("stopped late timer still reports pending")
	}
	k.Run()
	if !slices.Equal(order, []int{5}) {
		t.Errorf("fired %v, want only [5]", order)
	}
	if other.Pending() {
		t.Error("fired late timer reports pending")
	}
}

func TestLateSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("late scheduling in the past did not panic")
			}
		}()
		k.AtHandlerLate(500*time.Millisecond, 1, &recordHandler{log: new([]int)})
	})
	k.Run()
}

func TestKernelAfterChains(t *testing.T) {
	k := NewKernel(1)
	var times []time.Duration
	var tick func()
	tick = func() {
		times = append(times, k.Now())
		if len(times) < 5 {
			k.After(100*time.Millisecond, tick)
		}
	}
	k.After(100*time.Millisecond, tick)
	k.Run()
	for i, at := range times {
		want := time.Duration(i+1) * 100 * time.Millisecond
		if at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestKernelSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(500*time.Millisecond, func() {})
	})
	k.Run()
}

func TestTimerStop(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.After(time.Second, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	if tm.Pending() {
		t.Error("stopped timer reports pending")
	}
	k.Run()
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	k := NewKernel(1)
	tm := k.After(time.Millisecond, func() {})
	k.Run()
	if tm.Stop() {
		t.Error("Stop after fire should report false")
	}
	if tm.Pending() {
		t.Error("fired timer reports pending")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var ran []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		k.At(d, func() { ran = append(ran, d) })
	}
	k.RunUntil(3 * time.Second)
	if len(ran) != 3 {
		t.Fatalf("ran %d events, want 3", len(ran))
	}
	if k.Now() != 3*time.Second {
		t.Errorf("now = %v, want 3s", k.Now())
	}
	if k.Pending() != 2 {
		t.Errorf("pending = %d, want 2", k.Pending())
	}
	// Advancing to a quiet deadline moves the clock.
	k.RunUntil(10 * time.Second)
	if len(ran) != 5 || k.Now() != 10*time.Second {
		t.Errorf("after second RunUntil: ran=%d now=%v", len(ran), k.Now())
	}
}

func TestRNGDeterministicStreams(t *testing.T) {
	k1 := NewKernel(42)
	k2 := NewKernel(42)
	a := k1.RNG("link", "bs0", "veh")
	b := k2.RNG("link", "bs0", "veh")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same labels on same seed gave different streams")
		}
	}
}

func TestRNGStreamsIndependentOfOrder(t *testing.T) {
	k := NewKernel(7)
	a1 := k.RNG("a")
	b1 := k.RNG("b")
	// Creating in the reverse order must not change streams.
	k2 := NewKernel(7)
	b2 := k2.RNG("b")
	a2 := k2.RNG("a")
	for i := 0; i < 50; i++ {
		if a1.Uint64() != a2.Uint64() || b1.Uint64() != b2.Uint64() {
			t.Fatal("stream derivation depends on creation order")
		}
	}
}

func TestRNGDistinctLabelsDistinctStreams(t *testing.T) {
	k := NewKernel(9)
	a := k.RNG("x")
	b := k.RNG("y")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams for distinct labels collide too often: %d/64", same)
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewKernel(1).RNG("l")
	b := NewKernel(2).RNG("l")
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Error("different kernel seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGUniformMean(t *testing.T) {
	r := NewRNG(6)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ≈0.5", mean)
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(7)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %v", frac)
	}
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(8)
	var sum, sumsq float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(9)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if math.Abs(sum/n-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ≈1", sum/n)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + int(seed%64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGSample(t *testing.T) {
	r := NewRNG(10)
	s := r.Sample(10, 4)
	if len(s) != 4 {
		t.Fatalf("sample len = %d, want 4", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad sample %v", s)
		}
		seen[v] = true
	}
	defer func() {
		if recover() == nil {
			t.Error("Sample(2,3) did not panic")
		}
	}()
	r.Sample(2, 3)
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(11)
	d := 100 * time.Millisecond
	for i := 0; i < 10000; i++ {
		j := r.Jitter(d)
		if j < -d/2 || j > d/2 {
			t.Fatalf("jitter %v outside ±%v", j, d/2)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

// Property: timers stopped before Run never fire, timers left alone always
// do, whether ordinary or late.
func TestTimerProperty(t *testing.T) {
	f := func(seed int64, stops, lates []bool) bool {
		if len(stops) == 0 || len(stops) > 50 {
			return true
		}
		k := NewKernel(seed)
		var log []int
		fired := make([]bool, len(stops))
		timers := make([]Timer, len(stops))
		for i := range stops {
			i := i
			at := time.Duration(i%7+1) * time.Millisecond
			if i < len(lates) && lates[i] {
				timers[i] = k.AtHandlerLate(at, uint64(i), &recordHandler{id: i, log: &log})
				continue
			}
			timers[i] = k.At(at, func() { fired[i] = true })
		}
		for i, stop := range stops {
			if stop {
				timers[i].Stop()
			}
		}
		k.Run()
		for _, i := range log {
			fired[i] = true
		}
		for i, stop := range stops {
			if stop == fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKernelScheduleRun(b *testing.B) {
	k := NewKernel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.After(time.Microsecond, func() {})
		k.Step()
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
