package apiserver

import (
	"log"
	"net/http"
	"strconv"
	"time"

	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/trace"
)

// Metrics records per-route HTTP telemetry: request counts and latency
// histograms labeled by route pattern and status class, plus an
// in-flight gauge. Routes are labeled at registration time (the mux
// pattern), so label cardinality is fixed regardless of request URLs.
type Metrics struct {
	requests  *obs.CounterVec   // route, class
	latency   *obs.HistogramVec // route, class
	inFlight  *obs.Gauge
	shed      *obs.CounterVec // route, reason
	shedQueue *obs.GaugeVec   // route
	// SLO event counters: every response a route writes counts toward
	// sloTotal; server faults (5xx) and shed rejections (429) count
	// toward sloErrors. The availability objective reads both.
	sloTotal  *obs.Counter
	sloErrors *obs.Counter
}

// writeFailures counts response writes the client never received
// (connection gone mid-body). Process-global: write failures are a
// property of the transport, not of any one handler wiring.
var writeFailures = obs.Default().Counter("asrank_http_write_failures_total",
	"Response body writes that failed (client disconnected or transport error).")

// NewMetrics registers (or re-binds, idempotently) the HTTP metric
// families in reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		requests: reg.CounterVec("asrank_http_requests_total",
			"HTTP requests served, by route pattern and status class.", "route", "class"),
		latency: reg.HistogramVec("asrank_http_request_duration_seconds",
			"HTTP request latency, by route pattern and status class.",
			obs.DurationBuckets, "route", "class"),
		inFlight: reg.Gauge("asrank_http_in_flight_requests",
			"Requests currently being served."),
		shed: reg.CounterVec("asrank_http_requests_shed_total",
			"Requests rejected by load shedding, by route pattern and reason (queue_full, queue_timeout, canceled).",
			"route", "reason"),
		shedQueue: reg.GaugeVec("asrank_http_shed_queue_depth",
			"Requests waiting for an admission slot, by route pattern.", "route"),
		sloTotal: reg.Counter("asrank_slo_requests_total",
			"Responses counted toward the availability SLO."),
		sloErrors: reg.Counter("asrank_slo_request_errors_total",
			"SLO-burning responses: server faults (5xx) and shed rejections (429)."),
	}
}

// serveRoute is one route's whole request path. The request counts as
// in flight from arrival, queued time included, and runs as one
// "http.request" phase under tr: with a tracer, the phase's span joins
// a valid incoming traceparent, carries route, method, status, bytes
// and class attributes, and is echoed back in the response traceparent
// (a nil tr times the request without a span). The route's admission
// gate then runs h or answers 429/503 itself, and the response — shed
// rejections included — is counted once, by status class, into the
// request counter, the latency histogram (with the span's trace ID as
// the bucket's exemplar) and the SLO counters. A client that hangs up
// while queued wrote nothing and is counted only as shed.
func serveRoute(route string, policy ShedPolicy, m *Metrics, tr *trace.Tracer, h http.Handler) http.Handler {
	g := newGate(route, policy, m)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.inFlight.Inc()
		defer m.inFlight.Dec()
		ctx := r.Context()
		if tr != nil {
			if id, span, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
				ctx = trace.ContextWithRemote(ctx, id, span)
			}
		}
		ctx, ph := tr.StartPhase(ctx, "http.request")
		if ph.Span != nil {
			ph.Span.SetAttr("route", route)
			ph.Span.SetAttr("method", r.Method)
			w.Header().Set("traceparent", trace.Traceparent(ph.Span))
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w}
		if !g.serve(sw, r, h) {
			ph.End(nil, nil)
			return
		}
		code := sw.Status()
		class := statusClass(code)
		m.requests.With(route, class).Inc()
		ph.Span.SetAttrInt("status", int64(code))
		ph.Span.SetAttrInt("bytes", int64(sw.bytes))
		ph.Span.SetAttr("class", class)
		ph.End(m.latency.With(route, class), nil)
		m.sloTotal.Inc()
		if code >= 500 || code == http.StatusTooManyRequests {
			m.sloErrors.Inc()
		}
	})
}

// Objectives returns the declarative SLO set backed by these metrics —
// today a single availability objective (non-error responses over all
// responses) at the given target ratio. Pass the result to
// obs.NewSLOTracker.
func (m *Metrics) Objectives(target float64) []obs.Objective {
	return []obs.Objective{{
		Name:   "api_availability",
		Target: target,
		// Good is derived from two separate atomic reads that race with
		// live traffic: an error counted between them can make errors
		// exceed the earlier total read, and an unsigned subtraction
		// would wrap to a huge value and flip the burn math negative for
		// a window. Saturate at zero instead — momentarily under-counting
		// goodness only ever makes the burn look worse, never hides it.
		Good: func() uint64 {
			total, errors := m.sloTotal.Value(), m.sloErrors.Value()
			if errors >= total {
				return 0
			}
			return total - errors
		},
		Total: func() uint64 { return m.sloTotal.Value() },
	}}
}

// InFlight reports the number of requests currently inside a route,
// queued or running — the drain loop's readback for "is anything still
// being served".
func (m *Metrics) InFlight() float64 { return m.inFlight.Value() }

// ShedQueueDepth reports the total number of requests waiting for an
// admission slot across all routes — a readiness signal: a deep queue
// means new work will wait or be rejected.
func (m *Metrics) ShedQueueDepth() float64 { return m.shedQueue.Sum() }

// statusWriter captures the status code and body size a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Unwrap exposes the wrapped writer to http.ResponseController (Go
// 1.20+), so Flusher/ReaderFrom/Hijacker reach streaming handlers
// through the middleware stack instead of being hidden by the
// embedding — without it, a flush through LogRequests or serveRoute
// reports http.ErrNotSupported even though the underlying writer
// flushes fine.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Status returns the response status, defaulting to 200 when the
// handler never called WriteHeader.
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// statusClass buckets a status code into 1xx..5xx.
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// LogRequests is an access-log middleware that records the status code
// and response size alongside method, path, and latency — replacing
// asrankd's status-blind request logger.
func LogRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		log.Printf("%s %s -> %d (%dB, %s)",
			r.Method, r.URL.Path, sw.Status(), sw.bytes, time.Since(t0).Round(time.Microsecond))
	})
}
