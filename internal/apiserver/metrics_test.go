package apiserver

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stream"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/trace"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// metricsServer builds a handler over a small simulated topology with
// a fresh, injected registry so counter assertions are exact.
func metricsServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	p := topology.DefaultParams(7)
	p.ASes = 150
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(7)
	opts.NumVPs = 8
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	res := core.Infer(clean, core.Options{})
	reg := obs.NewRegistry()
	lv := NewLive(nil, Config{Registry: reg, Shed: DefaultShedPolicy()})
	lv.Swap(BuildSnapshot(warehouse.FromResult(res)))
	srv := httptest.NewServer(lv)
	t.Cleanup(srv.Close)
	return srv, reg
}

func get(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// servedCount reads the responses a route wrote in one status class:
// the count of its latency histogram.
func servedCount(reg *obs.Registry, route, class string) uint64 {
	return reg.HistogramVec("asrank_http_request_duration_seconds", "",
		obs.DurationBuckets, "route", "class").With(route, class).Count()
}

func TestErrorPathsRecordStatusClasses(t *testing.T) {
	srv, reg := metricsServer(t)

	// Bad ASN → 400 on the {asn} route.
	if code := get(t, srv.URL+"/api/v1/asns/notanumber"); code != 400 {
		t.Fatalf("bad ASN status = %d", code)
	}
	// Unknown ASN → 404 on the {asn} route.
	if code := get(t, srv.URL+"/api/v1/asns/4294967294"); code != 404 {
		t.Fatalf("unknown ASN status = %d", code)
	}
	// Bad limit and offset → 400 on the list route.
	for _, q := range []string{"?limit=0", "?limit=notanumber", "?limit=5000", "?offset=-1", "?offset=x"} {
		if code := get(t, srv.URL+"/api/v1/asns"+q); code != 400 {
			t.Fatalf("%s status = %d, want 400", q, code)
		}
	}
	// And two successes for contrast.
	if code := get(t, srv.URL+"/api/v1/asns?limit=3"); code != 200 {
		t.Fatalf("list status = %d", code)
	}
	if code := get(t, srv.URL+"/api/v1/health"); code != 200 {
		t.Fatalf("health status = %d", code)
	}

	if got := servedCount(reg, "/api/v1/asns/{asn}", "4xx"); got != 2 {
		t.Errorf("asns/{asn} 4xx = %d, want 2", got)
	}
	if got := servedCount(reg, "/api/v1/asns", "4xx"); got != 5 {
		t.Errorf("asns 4xx = %d, want 5", got)
	}
	if got := servedCount(reg, "/api/v1/asns", "2xx"); got != 1 {
		t.Errorf("asns 2xx = %d, want 1", got)
	}
	if got := servedCount(reg, "/api/v1/health", "2xx"); got != 1 {
		t.Errorf("health 2xx = %d, want 1", got)
	}

	if errs := obs.Lint(reg.Expose()); len(errs) != 0 {
		t.Fatalf("HTTP metrics exposition invalid: %v", errs)
	}
}

func TestWriteJSONEncodeFailureSendsCleanError(t *testing.T) {
	rr := httptest.NewRecorder()
	writeJSON(rr, false, map[string]any{"bad": make(chan int)}) // unencodable
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	body := rr.Body.String()
	if strings.Contains(body, "{") {
		t.Errorf("client saw partial JSON before the error: %q", body)
	}
	if ct := rr.Header().Get("Content-Type"); strings.Contains(ct, "application/json") {
		t.Errorf("error response mislabeled as JSON (%q)", ct)
	}
}

func TestStatusWriterDefaultsTo200(t *testing.T) {
	rr := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rr}
	sw.Write([]byte("hello"))
	if sw.Status() != 200 || sw.bytes != 5 {
		t.Fatalf("status=%d bytes=%d", sw.Status(), sw.bytes)
	}
	rr = httptest.NewRecorder()
	sw = &statusWriter{ResponseWriter: rr}
	sw.WriteHeader(404)
	sw.WriteHeader(500) // second call must not overwrite
	if sw.Status() != 404 {
		t.Fatalf("status=%d, want 404", sw.Status())
	}
}

// TestFlushThroughMiddlewareStack is the regression test for the
// statusWriter hiding http.Flusher: a streaming handler must be able
// to flush through the full production stack (access log → the traced,
// gated route), which requires Unwrap on every wrapping writer so
// http.ResponseController can reach the real connection.
func TestFlushThroughMiddlewareStack(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	tr := trace.New()
	var flushErr error
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := w.Write([]byte("chunk")); err != nil {
			t.Errorf("write: %v", err)
		}
		flushErr = http.NewResponseController(w).Flush()
	})
	stack := LogRequests(serveRoute("/stream", DefaultShedPolicy(), m, tr, inner))

	rr := httptest.NewRecorder()
	stack.ServeHTTP(rr, httptest.NewRequest("GET", "/stream", nil))
	if flushErr != nil {
		t.Fatalf("flush through middleware stack: %v", flushErr)
	}
	if !rr.Flushed {
		t.Fatal("flush never reached the underlying writer")
	}
	if rr.Body.String() != "chunk" {
		t.Fatalf("body = %q", rr.Body.String())
	}
}

func TestStatusClass(t *testing.T) {
	for code, want := range map[int]string{
		200: "2xx", 204: "2xx", 301: "3xx", 404: "4xx", 500: "5xx", 99: "other", 600: "other",
	} {
		if got := statusClass(code); got != want {
			t.Errorf("statusClass(%d) = %q, want %q", code, got, want)
		}
	}
}

// TestMetricsEndToEnd runs the real pipeline against the default
// registry and asserts the full /metrics surface the daemon serves:
// sanitize drop counters, per-inference-step durations, pool task
// histograms and steal counters, warehouse segment sizes, and per-route
// HTTP latency histograms with status classes — all in lint-clean
// Prometheus text format, and each event counted once: no family
// repeats a count another series already carries.
func TestMetricsEndToEnd(t *testing.T) {
	p := topology.DefaultParams(19)
	p.ASes = 200
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(19)
	opts.NumVPs = 8
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Sanitize + infer inside Infer (records sanitize and step metrics),
	// the snapshot build (cone + pool metrics), one warehouse append,
	// then serve requests through the default-registry handler exactly
	// as asrankd wires it.
	res := core.Infer(sim.Dataset.Clone(), core.Options{Sanitize: true})
	snap := warehouse.FromResult(res)
	data := BuildSnapshot(snap)
	st, err := warehouse.Open(t.TempDir(), warehouse.Options{Registry: obs.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(snap, "e0", data.ETag()); err != nil {
		t.Fatal(err)
	}
	lv := NewLive(st, Config{Shed: DefaultShedPolicy()})
	lv.Swap(data)
	srv := httptest.NewServer(LogRequests(lv))
	defer srv.Close()
	for _, path := range []string{"/api/v1/health", "/api/v1/asns?limit=5", "/api/v1/asns/0"} {
		get(t, srv.URL+path)
	}
	// One streaming commit, so the per-phase commit family is on the
	// scrape too.
	eng := stream.New(stream.Options{})
	for _, p := range sim.Dataset.Paths {
		eng.Announce(p.Collector, p.ASNs[0], p.Prefix, p.ASNs)
	}
	eng.Commit(context.Background())

	// Serve /metrics the way the daemon's debug listener does.
	msrv := httptest.NewServer(obs.Default().Handler())
	defer msrv.Close()
	resp, err := http.Get(msrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("content type = %q, want %q", ct, obs.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)

	for _, want := range []string{
		"asrank_sanitize_paths_kept_total",
		`asrank_sanitize_paths_dropped_total{reason="loop"}`,
		`asrank_sanitize_paths_dropped_total{reason="duplicate"}`,
		"asrank_sanitize_duration_seconds_count",
		"asrank_infer_duration_seconds_count",
		`asrank_infer_step_duration_seconds_count{step="sanitize"}`,
		`asrank_infer_step_duration_seconds_count{step="top-down"}`,
		`asrank_infer_step_duration_seconds_count{step="peer-default"}`,
		`asrank_infer_links_labeled_total{step="peer-default"}`,
		"asrank_infer_clique_size",
		`asrank_pool_task_duration_seconds_count{mode="range"}`,
		"asrank_pool_steals_total",
		"asrank_warehouse_segment_bytes_count",
		`asrank_cone_build_duration_seconds_count{engine="pp"}`,
		`asrank_stream_commit_phase_duration_seconds_count{phase="rank_clique"}`,
		`asrank_stream_commit_phase_duration_seconds_count{phase="infer"}`,
		`asrank_stream_commit_phase_duration_seconds_count{phase="credit"}`,
		`asrank_stream_commit_phase_duration_seconds_count{phase="slab"}`,
		`asrank_stream_commit_phase_duration_seconds_count{phase="compose"}`,
		`asrank_http_request_duration_seconds_count{route="/api/v1/health",class="2xx"}`,
		`asrank_http_request_duration_seconds_bucket{route="/api/v1/health",class="2xx",le="+Inf"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Each of these repeated a count the series in the comment carries.
	for _, gone := range []string{
		"asrank_http_requests_total",        // http_request_duration_seconds_count
		"asrank_slo_requests_total",         // Σ http_request_duration_seconds_count
		"asrank_infer_runs_total",           // infer_duration_seconds_count
		"asrank_warehouse_appends_total",    // warehouse_segment_bytes_count
		"asrank_sanitize_paths_input_total", // sanitize_paths_kept_total + Σ dropped
		"asrank_pool_tasks_total",           // pool_task_duration_seconds_count
	} {
		if strings.Contains(out, gone+" ") || strings.Contains(out, gone+"{") {
			t.Errorf("/metrics still carries %s", gone)
		}
	}
	if errs := obs.Lint(out); len(errs) != 0 {
		t.Fatalf("/metrics exposition invalid: %v", errs)
	}
}

// TestSLOGoodNeverCountsAnError hammers a route that always answers
// 500 while a sampler reads the availability objective: every response
// is an error, so Good must read 0 on every sample. serveRoute counts a
// response's error before the observation that puts it in the total,
// and Good reads the total first, so no sample can catch a response in
// the total without its error. Objectives' Total is the latency
// family's count, summed over its series.
func TestSLOGoodNeverCountsAnError(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	h := serveRoute("/fail", ShedPolicy{}, m, nil, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	obj := m.Objectives(0.999)[0]

	const workers, each = 4, 2000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest("GET", "/fail", nil)
			for i := 0; i < each; i++ {
				h.ServeHTTP(httptest.NewRecorder(), req)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	samples, bad := 0, 0
	for running := true; running; samples++ {
		select {
		case <-done:
			running = false
		default:
		}
		if obj.Good() != 0 {
			bad++
		}
	}
	if bad != 0 {
		t.Errorf("Good read > 0 on %d of %d samples of an all-5xx route", bad, samples)
	}
	if got := obj.Total(); got != workers*each {
		t.Errorf("Total = %d, want %d", got, workers*each)
	}
	if got := servedCount(reg, "/fail", "5xx"); got != obj.Total() {
		t.Errorf("latency 5xx count = %d, Total = %d", got, obj.Total())
	}
}
