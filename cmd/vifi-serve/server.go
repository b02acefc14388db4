package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/scenario"
)

// server hosts the session table behind an HTTP API. Session IDs are
// deterministic (s1, s2, ...) so scripted clients can predict them.
type server struct {
	mu       sync.Mutex
	sessions map[string]*session
	order    []string
	nextID   int
	slots    chan struct{}
}

func newServer(maxActive int) *server {
	if maxActive < 1 {
		maxActive = 1
	}
	return &server{
		sessions: map[string]*session{},
		slots:    make(chan struct{}, maxActive),
	}
}

func (sv *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", sv.createSession)
	mux.HandleFunc("GET /v1/sessions", sv.listSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", sv.inspectSession)
	mux.HandleFunc("GET /v1/sessions/{id}/metrics", sv.sessionMetrics)
	mux.HandleFunc("GET /v1/sessions/{id}/metrics/stream", sv.streamMetrics)
	mux.HandleFunc("GET /v1/sessions/{id}/recording", sv.sessionRecording)
	mux.HandleFunc("GET /v1/sessions/{id}/report", sv.sessionReport)
	mux.HandleFunc("POST /v1/sessions/{id}/pause", sv.pauseSession)
	mux.HandleFunc("POST /v1/sessions/{id}/resume", sv.resumeSession)
	return mux
}

// createRequest is the POST /v1/sessions body. Durations are Go
// duration strings ("600s", "2m"); interval defaults to 1s and shards
// to 1 (serial).
type createRequest struct {
	Scenario string `json:"scenario"`
	Protocol string `json:"protocol"`
	Duration string `json:"duration"`
	Seed     int64  `json:"seed"`
	Shards   int    `json:"shards"`
	Interval string `json:"interval"`
}

func (sv *server) createSession(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if !decodeBody(w, r, &req) {
		return
	}
	spec, err := scenario.Parse(req.Scenario)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad scenario: %v", err)
		return
	}
	if req.Protocol == "" {
		req.Protocol = "vifi"
	}
	var cfg core.Config
	switch req.Protocol {
	case "vifi":
		cfg = core.DefaultConfig()
	case "brr":
		cfg = core.BRRConfig()
	case "diversity-only":
		cfg = core.DiversityOnlyConfig()
	default:
		httpError(w, http.StatusBadRequest, "unknown protocol %q", req.Protocol)
		return
	}
	dur, err := time.ParseDuration(req.Duration)
	if err != nil || dur <= 0 {
		httpError(w, http.StatusBadRequest, "bad duration %q", req.Duration)
		return
	}
	interval := time.Second
	if req.Interval != "" {
		interval, err = time.ParseDuration(req.Interval)
		if err != nil || interval <= 0 {
			httpError(w, http.StatusBadRequest, "bad interval %q", req.Interval)
			return
		}
	}
	shards := req.Shards
	if shards < 1 {
		shards = 1
	}

	sv.mu.Lock()
	sv.nextID++
	id := fmt.Sprintf("s%d", sv.nextID)
	s := newSession(id)
	s.specStr = req.Scenario
	s.spec = spec
	s.protocol = req.Protocol
	s.cfg = cfg
	s.seed = req.Seed
	s.shards = shards
	s.duration = dur
	s.interval = interval
	sv.sessions[id] = s
	sv.order = append(sv.order, id)
	sv.mu.Unlock()

	go s.runLoop(sv.slots)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(map[string]string{"id": id})
}

// sessionInfo is the wire form of a session's status.
type sessionInfo struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	Spec     string `json:"spec"`
	Protocol string `json:"protocol"`
	Seed     int64  `json:"seed"`
	Shards   int    `json:"shards"`
	Lanes    int    `json:"lanes,omitempty"`
	Duration string `json:"duration"`
	Interval string `json:"interval"`
	State    string `json:"state"`
	Now      string `json:"now"`
	End      string `json:"end"`
	Samples  int    `json:"samples"`
	Error    string `json:"error,omitempty"`
}

func (s *session) info() sessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := sessionInfo{
		ID:       s.id,
		Scenario: s.specStr,
		Spec:     s.spec.Key(),
		Protocol: s.protocol,
		Seed:     s.seed,
		Shards:   s.eff,
		Lanes:    s.lanes,
		Duration: s.duration.String(),
		Interval: s.interval.String(),
		State:    s.state,
		Now:      s.now.String(),
		End:      s.end.String(),
		Samples:  len(s.samples),
	}
	if s.eff == 0 {
		info.Shards = s.shards
	}
	if s.err != nil {
		info.Error = s.err.Error()
	}
	return info
}

func (sv *server) listSessions(w http.ResponseWriter, r *http.Request) {
	sv.mu.Lock()
	list := make([]*session, 0, len(sv.order))
	for _, id := range sv.order {
		list = append(list, sv.sessions[id])
	}
	sv.mu.Unlock()
	infos := make([]sessionInfo, len(list))
	for i, s := range list {
		infos[i] = s.info()
	}
	writeJSON(w, infos)
}

func (sv *server) lookup(w http.ResponseWriter, r *http.Request) *session {
	sv.mu.Lock()
	s := sv.sessions[r.PathValue("id")]
	sv.mu.Unlock()
	if s == nil {
		httpError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
	}
	return s
}

func (sv *server) inspectSession(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(w, r)
	if s == nil {
		return
	}
	info := s.info()
	s.mu.Lock()
	series := make([]string, len(s.series))
	for i, d := range s.series {
		series[i] = d.Name
	}
	s.mu.Unlock()
	writeJSON(w, struct {
		sessionInfo
		Series []string `json:"series"`
	}{info, series})
}

// metricsHistory is the GET .../metrics payload: the full merged
// sample history so far.
type metricsHistory struct {
	Series  []obs.SeriesDef `json:"series"`
	Samples []liveSample    `json:"samples"`
}

func (sv *server) sessionMetrics(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(w, r)
	if s == nil {
		return
	}
	s.mu.Lock()
	h := metricsHistory{
		Series:  append([]obs.SeriesDef(nil), s.series...),
		Samples: append([]liveSample(nil), s.samples...),
	}
	s.mu.Unlock()
	writeJSON(w, h)
}

// streamMetrics serves the live sample feed as server-sent events. The
// history is replayed first, then each merged tick is pushed as it
// lands; the stream ends when the run completes.
func (sv *server) streamMetrics(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(w, r)
	if s == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	id, ch, hist, live := s.subscribe()
	if live {
		defer s.unsubscribe(id)
	}
	enc := func(sm liveSample) bool {
		b, _ := json.Marshal(sm)
		if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, sm := range hist {
		if !enc(sm) {
			return
		}
	}
	if !live {
		fmt.Fprint(w, "event: done\ndata: {}\n\n")
		fl.Flush()
		return
	}
	for {
		select {
		case sm, ok := <-ch:
			if !ok {
				fmt.Fprint(w, "event: done\ndata: {}\n\n")
				fl.Flush()
				return
			}
			if !enc(sm) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (sv *server) sessionRecording(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(w, r)
	if s == nil {
		return
	}
	rec := s.liveRecording()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteJSONAll(w, []*obs.Recording{rec}); err != nil {
			httpError(w, http.StatusInternalServerError, "encode: %v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := obs.WriteAll(w, []*obs.Recording{rec}); err != nil {
		httpError(w, http.StatusInternalServerError, "encode: %v", err)
	}
}

// sessionReport returns the final text report, byte-identical to the
// batch vifi-sim output for the same spec/protocol/seed/duration.
func (sv *server) sessionReport(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(w, r)
	if s == nil {
		return
	}
	s.mu.Lock()
	state := s.state
	report := s.report
	err := s.err
	s.mu.Unlock()
	switch state {
	case "failed":
		httpError(w, http.StatusInternalServerError, "session failed: %v", err)
	case "done":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(report)
	default:
		httpError(w, http.StatusConflict, "session %s still %s", s.id, state)
	}
}

// pauseRequest optionally names a sim-time barrier; without a body (or
// with at="") the session pauses at the next step boundary.
type pauseRequest struct {
	At string `json:"at"`
}

func (sv *server) pauseSession(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(w, r)
	if s == nil {
		return
	}
	var req pauseRequest
	if r.ContentLength != 0 && !decodeBody(w, r, &req) {
		return
	}
	var at time.Duration
	if req.At != "" {
		var err error
		at, err = time.ParseDuration(req.At)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad at %q", req.At)
			return
		}
	}
	if err := s.pause(at); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, s.info())
}

func (sv *server) resumeSession(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(w, r)
	if s == nil {
		return
	}
	s.resume()
	writeJSON(w, s.info())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// maxBodyBytes bounds every request body the server decodes.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// It answers 413 for a larger body and 400 for malformed JSON, and
// reports whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
	default:
		httpError(w, http.StatusBadRequest, "bad JSON body: %v", err)
	}
	return false
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
