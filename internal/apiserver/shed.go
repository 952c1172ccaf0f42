package apiserver

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// ShedPolicy bounds what one route may consume. The server degrades
// instead of collapsing: up to MaxConcurrent requests run, up to
// MaxQueue more wait at most QueueTimeout for a slot, and everything
// beyond that is rejected immediately — 429 when the queue is full
// (the client is sending too fast), 503 when a queued request's wait
// timed out (the server is too slow right now). Both carry Retry-After
// so well-behaved clients back off instead of retry-storming.
type ShedPolicy struct {
	// MaxConcurrent is the number of in-flight requests a heavy route
	// admits; cheap point-lookup routes admit pointLookupFactor times
	// as many. <= 0 disables shedding on the route.
	MaxConcurrent int
	// MaxQueue is how many requests beyond MaxConcurrent may wait for
	// a slot; defaults to 2*MaxConcurrent when 0.
	MaxQueue int
	// QueueTimeout caps how long a queued request waits; defaults to
	// 250ms when 0.
	QueueTimeout time.Duration
	// RetryAfter is the backoff hint on 429/503 responses; defaults to
	// 1s when 0 (rounded up to whole seconds, minimum 1).
	RetryAfter time.Duration
}

// pointLookupFactor scales the concurrency limit for routes that serve
// pre-serialized bytes (point lookups, cone probes, health): they
// finish orders of magnitude faster than page assembly, so one slot of
// budget admits many more of them.
const pointLookupFactor = 4

// DefaultShedPolicy is tuned for a single asrankd replica: enough
// parallelism to saturate cores on page assembly without letting a
// burst queue unboundedly.
func DefaultShedPolicy() ShedPolicy {
	return ShedPolicy{
		MaxConcurrent: 64,
		MaxQueue:      128,
		QueueTimeout:  250 * time.Millisecond,
		RetryAfter:    time.Second,
	}
}

func (p ShedPolicy) withDefaults() ShedPolicy {
	if p.MaxQueue <= 0 {
		p.MaxQueue = 2 * p.MaxConcurrent
	}
	if p.QueueTimeout <= 0 {
		p.QueueTimeout = 250 * time.Millisecond
	}
	if p.RetryAfter <= 0 {
		p.RetryAfter = time.Second
	}
	return p
}

// scaled returns the policy with its concurrency and queue limits
// multiplied by factor (for the cheap point-lookup routes).
func (p ShedPolicy) scaled(factor int) ShedPolicy {
	p.MaxConcurrent *= factor
	p.MaxQueue *= factor
	return p
}

// gate is one route's admission gate: a buffered-channel semaphore
// plus a typed-atomic queue depth counter. Rejections are recorded in
// m (asrank_http_requests_shed_total by route and reason, plus a live
// queue-depth gauge).
type gate struct {
	policy     ShedPolicy
	sem        chan struct{}
	queued     atomic.Int64
	retryAfter string // precomputed whole-seconds header value

	m     *Metrics
	route string
}

// newGate builds the gate policy describes for route, or nil — a gate
// that admits everything — when MaxConcurrent is not positive.
func newGate(route string, policy ShedPolicy, m *Metrics) *gate {
	if policy.MaxConcurrent <= 0 {
		return nil
	}
	policy = policy.withDefaults()
	secs := int(policy.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	// Pre-create the children so the overload series exist at 0 from
	// startup — a dashboard can alert on them before the first incident
	// ever increments them.
	m.shedQueue.With(route)
	for _, reason := range []string{"queue_full", "queue_timeout", "canceled"} {
		m.shed.With(route, reason)
	}
	return &gate{
		policy:     policy,
		sem:        make(chan struct{}, policy.MaxConcurrent),
		retryAfter: strconv.Itoa(secs),
		m:          m,
		route:      route,
	}
}

// serve runs h once the request holds a slot, or answers it with the
// 429 or 503 itself. It returns false only when the client canceled
// while queued: nothing was written, and the request is not a response.
func (g *gate) serve(w http.ResponseWriter, r *http.Request, h http.Handler) bool {
	if g == nil {
		h.ServeHTTP(w, r)
		return true
	}
	select {
	case g.sem <- struct{}{}: // free slot, no queueing
	default:
		if reason := g.wait(w, r); reason != "" {
			return reason != "canceled"
		}
	}
	defer func() { <-g.sem }()
	h.ServeHTTP(w, r)
	return true
}

// wait queues the request for up to QueueTimeout, rejecting
// immediately when the queue itself is full. It returns "" once a slot
// is held, or the reason the request was turned away.
func (g *gate) wait(w http.ResponseWriter, r *http.Request) string {
	if g.queued.Add(1) > int64(g.policy.MaxQueue) {
		g.queued.Add(-1)
		return g.reject(w, http.StatusTooManyRequests, "queue_full")
	}
	depth := g.m.shedQueue.With(g.route)
	depth.Inc()
	defer depth.Dec()
	defer g.queued.Add(-1)
	t := time.NewTimer(g.policy.QueueTimeout)
	defer t.Stop()
	select {
	case g.sem <- struct{}{}:
		return ""
	case <-t.C:
		return g.reject(w, http.StatusServiceUnavailable, "queue_timeout")
	case <-r.Context().Done():
		// The client gave up while queued; nothing useful to write,
		// but the rejection is still counted so a retry storm that
		// cancels aggressively stays visible.
		g.m.shed.With(g.route, "canceled").Inc()
		return "canceled"
	}
}

// reject counts the rejection and writes the shed response:
// Retry-After plus a small JSON body. It returns reason.
func (g *gate) reject(w http.ResponseWriter, status int, reason string) string {
	g.m.shed.With(g.route, reason).Inc()
	h := w.Header()
	h.Set("Retry-After", g.retryAfter)
	h.Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body := `{"error":"overloaded","reason":"` + reason + `"}` + "\n"
	if _, err := w.Write([]byte(body)); err != nil {
		writeFailures.Inc()
	}
	return reason
}
