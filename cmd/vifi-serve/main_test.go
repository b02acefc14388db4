package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/experiment"
	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/scenario"
)

// batchReport renders the reference report through the same batch path
// vifi-sim uses (no sampling attached).
func batchReport(t *testing.T, name string, seed int64, dur time.Duration, shards int) string {
	t.Helper()
	spec, err := scenario.Parse(name)
	if err != nil {
		t.Fatal(err)
	}
	var run *experiment.FleetAppRun
	if shards > 1 {
		run, err = experiment.RunFleetAppWorkloadSharded(seed, spec, core.DefaultConfig(), dur, shards)
	} else {
		run, err = experiment.RunFleetAppWorkload(seed, spec, core.DefaultConfig(), dur)
	}
	if err != nil {
		t.Fatal(err)
	}
	experiment.TakeShardLog()
	var buf bytes.Buffer
	experiment.FprintFleetReport(&buf, run, "vifi", dur, seed)
	return buf.String()
}

func startTestServer(t *testing.T, maxActive int) (*server, *httptest.Server) {
	t.Helper()
	sv := newServer(maxActive)
	ts := httptest.NewServer(sv.handler())
	t.Cleanup(ts.Close)
	return sv, ts
}

func createSession(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("create: status %d: %s", resp.StatusCode, b)
	}
	var out struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func waitDone(t *testing.T, sv *server, id string) {
	t.Helper()
	sv.mu.Lock()
	s := sv.sessions[id]
	sv.mu.Unlock()
	if s == nil {
		t.Fatalf("no session %s", id)
	}
	s.waitDone()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != "done" {
		t.Fatalf("session %s ended %s: %v", id, s.state, s.err)
	}
}

func TestServeReportMatchesBatch(t *testing.T) {
	sv, ts := startTestServer(t, 2)
	id := createSession(t, ts, `{"scenario":"grid-small","duration":"30s","seed":17}`)
	if id != "s1" {
		t.Fatalf("id = %q, want s1", id)
	}
	waitDone(t, sv, id)

	code, got := get(t, ts, "/v1/sessions/"+id+"/report")
	if code != http.StatusOK {
		t.Fatalf("report: status %d: %s", code, got)
	}
	want := batchReport(t, "grid-small", 17, 30*time.Second, 1)
	if string(got) != want {
		t.Errorf("serve report differs from batch:\n--- serve ---\n%s--- batch ---\n%s", got, want)
	}
}

func TestServeShardedReportMatchesBatch(t *testing.T) {
	sv, ts := startTestServer(t, 2)
	id := createSession(t, ts,
		`{"scenario":"metro-districts","duration":"20s","seed":7,"shards":4}`)
	waitDone(t, sv, id)

	code, got := get(t, ts, "/v1/sessions/"+id+"/report")
	if code != http.StatusOK {
		t.Fatalf("report: status %d: %s", code, got)
	}
	want := batchReport(t, "metro-districts", 7, 20*time.Second, 4)
	if string(got) != want {
		t.Errorf("sharded serve report differs from batch:\n--- serve ---\n%s--- batch ---\n%s", got, want)
	}
}

func TestServeHaloShardedReportMatchesBatch(t *testing.T) {
	sv, ts := startTestServer(t, 2)
	// grid-metro is un-districted, so shards=4 engages the halo-band
	// stripe lanes inside a single kernel rather than coupled kernels.
	id := createSession(t, ts,
		`{"scenario":"grid-metro,bs=180,vehicles=8","duration":"10s","seed":7,"shards":4}`)
	waitDone(t, sv, id)

	code, got := get(t, ts, "/v1/sessions/"+id+"/report")
	if code != http.StatusOK {
		t.Fatalf("report: status %d: %s", code, got)
	}
	want := batchReport(t, "grid-metro,bs=180,vehicles=8", 7, 10*time.Second, 1)
	if string(got) != want {
		t.Errorf("halo serve report differs from serial batch:\n--- serve ---\n%s--- batch ---\n%s", got, want)
	}

	var info sessionInfo
	_, b := get(t, ts, "/v1/sessions/"+id)
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatal(err)
	}
	// One kernel (one sampler contribution per tick), four stripe lanes.
	if info.Shards != 1 || info.Lanes != 4 {
		t.Errorf("info shards=%d lanes=%d, want shards=1 lanes=4", info.Shards, info.Lanes)
	}
}

func TestServePauseResumeDeterminism(t *testing.T) {
	sv, ts := startTestServer(t, 2)
	spec := `{"scenario":"grid-small","duration":"40s","seed":3}`
	plain := createSession(t, ts, spec)
	waitDone(t, sv, plain)

	paused := createSession(t, ts, spec)
	resp, err := http.Post(ts.URL+"/v1/sessions/"+paused+"/pause", "application/json",
		strings.NewReader(`{"at":"10s"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: status %d", resp.StatusCode)
	}
	// Wait until the runner actually parks (it may also already be done
	// if the run outran the pause request; both are fine for identity,
	// but normally 40 sim-seconds of stepping loses that race).
	deadline := time.Now().Add(30 * time.Second)
	for {
		var info sessionInfo
		_, b := get(t, ts, "/v1/sessions/"+paused)
		if err := json.Unmarshal(b, &info); err != nil {
			t.Fatal(err)
		}
		if info.State == "paused" || info.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never paused: state %s", info.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, err := http.Post(ts.URL+"/v1/sessions/"+paused+"/resume", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	waitDone(t, sv, paused)

	_, a := get(t, ts, "/v1/sessions/"+plain+"/report")
	_, b := get(t, ts, "/v1/sessions/"+paused+"/report")
	if !bytes.Equal(a, b) {
		t.Errorf("pause/resume changed the report:\n--- plain ---\n%s--- paused ---\n%s", a, b)
	}
	_, ra := get(t, ts, "/v1/sessions/"+plain+"/recording")
	_, rb := get(t, ts, "/v1/sessions/"+paused+"/recording")
	if !bytes.Equal(ra, rb) {
		t.Error("pause/resume changed the metrics recording")
	}
}

func TestServeConcurrentSessions(t *testing.T) {
	sv, ts := startTestServer(t, 3)
	spec := `{"scenario":"grid-small","duration":"25s","seed":11}`
	var wg sync.WaitGroup
	ids := make([]string, 3)
	var mu sync.Mutex
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := createSession(t, ts, spec)
			mu.Lock()
			ids[i] = id
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	var reports [][]byte
	for _, id := range ids {
		waitDone(t, sv, id)
		_, b := get(t, ts, "/v1/sessions/"+id+"/report")
		reports = append(reports, b)
	}
	for i := 1; i < len(reports); i++ {
		if !bytes.Equal(reports[0], reports[i]) {
			t.Errorf("identical concurrent sessions disagree: %s vs %s", ids[0], ids[i])
		}
	}
}

func TestServeMetricsEndpoints(t *testing.T) {
	sv, ts := startTestServer(t, 1)
	id := createSession(t, ts, `{"scenario":"grid-small","duration":"20s","seed":5}`)
	waitDone(t, sv, id)

	// Inspect: series schema present.
	var info struct {
		sessionInfo
		Series []string `json:"series"`
	}
	code, b := get(t, ts, "/v1/sessions/"+id)
	if code != http.StatusOK {
		t.Fatalf("inspect: status %d", code)
	}
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatal(err)
	}
	if info.State != "done" || len(info.Series) == 0 {
		t.Fatalf("inspect: state %s, %d series", info.State, len(info.Series))
	}

	// History: one merged row per elapsed second (21 ticks incl. t=end,
	// sampler starts at one interval in).
	var hist metricsHistory
	_, b = get(t, ts, "/v1/sessions/"+id+"/metrics")
	if err := json.Unmarshal(b, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Series) != len(info.Series) {
		t.Errorf("metrics: %d series, inspect said %d", len(hist.Series), len(info.Series))
	}
	if len(hist.Samples) == 0 {
		t.Fatal("metrics: no samples")
	}
	for _, sm := range hist.Samples {
		if len(sm.Values) != len(hist.Series) {
			t.Fatalf("sample width %d != %d series", len(sm.Values), len(hist.Series))
		}
	}

	// Recording: decodes as FTDC, same shape as the history.
	_, b = get(t, ts, "/v1/sessions/"+id+"/recording")
	recs, err := obs.ReadAll(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recording: %d recordings", len(recs))
	}
	if recs[0].Rows() != len(hist.Samples) {
		t.Errorf("recording rows %d != history samples %d", recs[0].Rows(), len(hist.Samples))
	}
	last := hist.Samples[len(hist.Samples)-1]
	for i, v := range recs[0].Row(recs[0].Rows() - 1) {
		if v != last.Values[i] {
			t.Errorf("recording final row [%d] = %d, history says %d", i, v, last.Values[i])
		}
	}

	// Stream: history replays then the done event closes the stream.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/metrics/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var dataLines int
	var sawDone bool
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: {\"at_ns\"") {
			dataLines++
		}
		if line == "event: done" {
			sawDone = true
		}
	}
	if dataLines != len(hist.Samples) || !sawDone {
		t.Errorf("stream: %d data lines (want %d), done=%v", dataLines, len(hist.Samples), sawDone)
	}

	_ = sv
}

func TestServeBadRequests(t *testing.T) {
	_, ts := startTestServer(t, 1)
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"scenario":"no-such-place","duration":"10s"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad scenario: status %d", resp.StatusCode)
	}
	for _, path := range []string{"/v1/sessions/nope", "/v1/sessions/nope/report", "/v1/sessions/nope/metrics"} {
		code, _ := get(t, ts, path)
		if code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
	}
	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"scenario":"grid-small","duration":"-3s"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad duration: status %d", resp.StatusCode)
	}
}

// TestServeOversizedBody: a 2 MiB body is refused with 413 on both
// endpoints that decode one, before anything is created or paused.
func TestServeOversizedBody(t *testing.T) {
	sv, ts := startTestServer(t, 1)
	id := createSession(t, ts, `{"scenario":"grid-small","duration":"1s","seed":1}`)
	waitDone(t, sv, id)
	huge := `{"scenario":"` + strings.Repeat("a", 2<<20) + `"}`
	for _, path := range []string{"/v1/sessions", "/v1/sessions/" + id + "/pause"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with 2 MiB: status %d, want 413", path, resp.StatusCode)
		}
	}
	if code, body := get(t, ts, "/v1/sessions"); code != http.StatusOK || strings.Count(string(body), `"id"`) != 1 {
		t.Errorf("after oversized posts: status %d, sessions %s", code, body)
	}
}

func TestServeSessionList(t *testing.T) {
	sv, ts := startTestServer(t, 2)
	a := createSession(t, ts, `{"scenario":"grid-small","duration":"15s","seed":1}`)
	b := createSession(t, ts, `{"scenario":"grid-small","duration":"15s","seed":2}`)
	waitDone(t, sv, a)
	waitDone(t, sv, b)
	code, body := get(t, ts, "/v1/sessions")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var infos []sessionInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].ID != a || infos[1].ID != b {
		t.Fatalf("list = %+v, want [%s %s] in order", infos, a, b)
	}
	for _, in := range infos {
		if in.State != "done" {
			t.Errorf("%s: state %s", in.ID, in.State)
		}
	}
	if fmt.Sprint(infos[0].Seed, infos[1].Seed) != "1 2" {
		t.Errorf("seeds = %d %d", infos[0].Seed, infos[1].Seed)
	}
}
