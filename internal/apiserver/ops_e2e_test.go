package apiserver

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/oplog"
	"github.com/asrank-go/asrank/internal/trace"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// exemplarRe matches a latency bucket carrying an exemplar and captures
// the 32-hex trace ID. Route labels contain braces ("/asns/{asn}"), so
// the label set is matched lazily up to the exemplar marker.
var exemplarRe = regexp.MustCompile(
	`(?m)^asrank_http_request_duration_seconds_bucket\{.+ # \{trace_id="([0-9a-f]{32})"\}`)

// TestExemplarResolvesToFlightRecorder is the exemplar acceptance
// proof: a traced request leaves a trace ID on its latency bucket, the
// exposition stays valid under the strict linter with the exemplar
// present, and the ID resolves — the same trace the client saw in its
// traceparent response header is findable in the flight recorder, so
// an operator can walk from a histogram outlier to the spans that
// caused it.
func TestExemplarResolvesToFlightRecorder(t *testing.T) {
	res := inferSeed(t, 81, 300)
	d := BuildSnapshot(warehouse.FromResult(res))
	reg := obs.NewRegistry()
	tracer := trace.New()
	lv := NewLive(nil, Config{Registry: reg, Tracer: tracer, Shed: DefaultShedPolicy()})
	lv.Swap(d)
	srv := httptest.NewServer(lv)
	t.Cleanup(srv.Close)

	resp := fetch(t, srv.URL+"/api/v1/asns/"+itoa(res.Clique[0]), nil)
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// The trace ID the client observed: traceparent is
	// version-traceID-spanID-flags.
	parts := strings.Split(resp.Header.Get("traceparent"), "-")
	if len(parts) != 4 {
		t.Fatalf("traceparent = %q", resp.Header.Get("traceparent"))
	}
	clientTrace := parts[1]

	// The exemplar is stamped after the handler returns and the span is
	// published after that, so poll briefly rather than racing the
	// middleware tail.
	var exemplarTrace string
	deadline := time.Now().Add(5 * time.Second)
	for exemplarTrace == "" {
		if m := exemplarRe.FindStringSubmatch(reg.ExposeOpenMetrics()); m != nil {
			exemplarTrace = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no exemplar appeared on any latency bucket")
		}
		time.Sleep(time.Millisecond)
	}
	if exemplarTrace != clientTrace {
		t.Fatalf("exemplar trace %s != client-observed trace %s", exemplarTrace, clientTrace)
	}

	// The ID resolves: the flight recorder holds the request's span.
	resolved := false
	for !resolved {
		for _, s := range tracer.Flight() {
			if s.Trace.String() == exemplarTrace {
				resolved = true
				break
			}
		}
		if resolved {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s not found in the flight recorder", exemplarTrace)
		}
		time.Sleep(time.Millisecond)
	}

	// Exemplars must not cost exposition validity: the OpenMetrics
	// variant carries them and still lints, while the classic 0.0.4
	// scrape — whose parser rejects exemplar tokens — stays free of
	// them entirely.
	exposed := reg.ExposeOpenMetrics()
	if !strings.Contains(exposed, `# {trace_id="`) {
		t.Fatal("OpenMetrics exposition lost its exemplar")
	}
	if errs := obs.Lint(exposed); len(errs) != 0 {
		t.Fatalf("exposition invalid with exemplars: %v", errs)
	}
	classic := reg.Expose()
	if strings.Contains(classic, `# {trace_id="`) {
		t.Fatal("classic 0.0.4 exposition carries an exemplar")
	}
	if errs := obs.Lint(classic); len(errs) != 0 {
		t.Fatalf("classic exposition invalid: %v", errs)
	}
}

// TestReadyzUnderShedStorm is the readiness acceptance proof: the
// replica walks unready → ready → degraded → ready end to end. The
// degradation is real — slow clients pin the admission gate, honest
// clients get shed with 429s, the SLO tracker sees the error-budget
// burn, and the burn check flips /readyz to 503 — and so is the
// recovery, with every transition journaled. SLO sampling is driven
// manually with a synthetic clock so the burn math is deterministic.
func TestReadyzUnderShedStorm(t *testing.T) {
	res := inferSeed(t, 81, 300)
	d := BuildSnapshot(warehouse.FromResult(res))
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	journal := oplog.New(oplog.Options{RingSize: 128})
	health := NewHealth(journal)

	const window = time.Minute
	slo := obs.NewSLOTracker(reg, []time.Duration{window}, m.Objectives(0.999)...)
	health.AddCheck("slo_burn", func() (bool, string) {
		if b := slo.MaxBurn(window); b > 10 {
			return false, fmt.Sprintf("burn rate %.1f over threshold 10", b)
		}
		return true, ""
	})

	// The asrankd wiring in miniature: health endpoints beside the shed
	// data routes, one slot and a one-deep queue so two slow clients
	// constitute a storm.
	shed := ShedPolicy{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 30 * time.Second, RetryAfter: 1 * time.Second}
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", health.Healthz())
	mux.Handle("GET /readyz", health.Readyz())
	lv := NewLive(nil, Config{Registry: reg, Metrics: m, Shed: shed})
	lv.Swap(d)
	mux.Handle("/", lv)
	srv := httptest.NewUnstartedServer(mux)
	srv.Listener = slowClientListener{srv.Listener}
	srv.Start()
	t.Cleanup(srv.Close)

	readyz := func() (int, string) {
		t.Helper()
		resp := fetch(t, srv.URL+"/readyz", nil)
		var body struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.Status
	}

	// Unready until the first snapshot lands; liveness is already green.
	if code, status := readyz(); code != 503 || status != StateUnready {
		t.Fatalf("before publish: readyz = %d %q", code, status)
	}
	if code := fetch(t, srv.URL+"/healthz", nil).StatusCode; code != 200 {
		t.Fatalf("healthz = %d", code)
	}

	// First publish: baseline SLO sample, then mark ready.
	base := time.Now()
	slo.Sample(base)
	health.MarkReady()
	if code, status := readyz(); code != 200 || status != StateReady {
		t.Fatalf("after publish: readyz = %d %q", code, status)
	}

	// The storm: one slow client holds the only slot, a second fills
	// the queue, and every honest request after that burns budget.
	slowGet := func() net.Conn {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetReadBuffer(4 << 10)
		}
		req := "GET /api/v1/asns?limit=1000&pretty=1 HTTP/1.1\r\nHost: ops\r\n\r\n"
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	c1 := slowGet()
	c2 := slowGet()
	defer c1.Close()
	defer c2.Close()
	pinDeadline := time.Now().Add(10 * time.Second)
	for m.shedQueue.With("/api/v1/asns").Value() < 1 {
		if time.Now().After(pinDeadline) {
			t.Fatal("slow clients never pinned the admission gate")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		resp := fetch(t, srv.URL+"/api/v1/asns?limit=1000", nil)
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("storm request %d status = %d, want 429", i, resp.StatusCode)
		}
	}

	// Sample mid-storm: 5 errors over 5 SLO events in the window is a
	// 100% error ratio — burn 1000 at a 99.9% target, far past the
	// threshold, so the replica reports degraded with the check named.
	slo.Sample(base.Add(10 * time.Second))
	if code, status := readyz(); code != 503 || status != StateDegraded {
		t.Fatalf("mid-storm: readyz = %d %q, want 503 degraded", code, status)
	}
	if code := fetch(t, srv.URL+"/healthz", nil).StatusCode; code != 200 {
		t.Fatalf("healthz during storm = %d (liveness must not follow readiness)", code)
	}

	// Storm ends: the slow clients hang up, the slot frees, traffic
	// succeeds again.
	c1.Close()
	c2.Close()
	recovered := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		resp := fetch(t, srv.URL+"/api/v1/asns?limit=1000", nil)
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == 200 {
			recovered = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("gate never recovered after slow clients disconnected")
	}

	// Close the storm epoch with a sample, then demonstrate a clean
	// window: only successes land between the next two samples, spaced
	// so the storm's errors age past the window baseline.
	slo.Sample(base.Add(90 * time.Second))
	for i := 0; i < 3; i++ {
		resp := fetch(t, srv.URL+"/api/v1/clique", nil)
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("post-storm request status = %d", resp.StatusCode)
		}
	}
	slo.Sample(base.Add(160 * time.Second))
	if code, status := readyz(); code != 200 || status != StateReady {
		t.Fatalf("after recovery: readyz = %d %q, want 200 ready", code, status)
	}

	// Every transition was journaled, in order.
	var transitions []string
	for _, ev := range journal.Recent() {
		if ev.Name != "health.state" {
			continue
		}
		var from, to string
		for _, a := range ev.Attrs {
			switch a.Key {
			case "from":
				from = a.Str
			case "to":
				to = a.Str
			}
		}
		transitions = append(transitions, from+">"+to)
	}
	want := []string{"unready>ready", "ready>degraded", "degraded>ready"}
	if len(transitions) != len(want) {
		t.Fatalf("journaled transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Errorf("transition %d = %q, want %q", i, transitions[i], want[i])
		}
	}

	// The whole episode left a lintable exposition: burn-rate gauges,
	// shed counters, the SLO error counter and the latency family whose
	// count is the SLO's total.
	exposed := reg.Expose()
	for _, fam := range []string{"asrank_slo_burn_rate", "asrank_slo_request_errors_total",
		"asrank_http_request_duration_seconds_count", "asrank_http_requests_shed_total"} {
		if !strings.Contains(exposed, fam) {
			t.Errorf("exposition missing %s", fam)
		}
	}
	if errs := obs.Lint(exposed); len(errs) != 0 {
		t.Fatalf("exposition invalid after storm: %v", errs)
	}
}
