package apiserver

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/obs"
)

// shedHarness wraps a handler whose completion the test controls, so
// admission decisions are deterministic: occupy the only slot, then
// probe the queue and rejection paths.
type shedHarness struct {
	reg     *obs.Registry
	m       *Metrics
	h       http.Handler
	entered chan struct{} // one tick per request that reached the handler
	release chan struct{} // handler blocks here until closed
}

func newShedHarness(t *testing.T, p ShedPolicy) *shedHarness {
	t.Helper()
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	hs := &shedHarness{
		reg:     reg,
		m:       m,
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hs.entered <- struct{}{}
		<-hs.release
		w.WriteHeader(http.StatusOK)
	})
	hs.h = serveRoute("/test", p, m, nil, inner)
	return hs
}

func (hs *shedHarness) do(t *testing.T) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	hs.h.ServeHTTP(rr, httptest.NewRequest("GET", "/test", nil))
	return rr
}

// waitQueued blocks until n requests are visibly waiting in the gate.
func (hs *shedHarness) waitQueued(t *testing.T, n float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for hs.m.shedQueue.With("/test").Value() < n {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
}

func shedCount(reg *obs.Registry, reason string) uint64 {
	return reg.CounterVec("asrank_http_requests_shed_total",
		"Requests rejected by load shedding, by route pattern and reason (queue_full, queue_timeout, canceled).",
		"route", "reason").With("/test", reason).Value()
}

// TestShedQueueFull429: with the slot held and the queue occupied, the
// next request is rejected immediately with 429 + Retry-After, and the
// gate admits again once the burst drains.
func TestShedQueueFull429(t *testing.T) {
	p := ShedPolicy{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 10 * time.Second, RetryAfter: 2 * time.Second}
	hs := newShedHarness(t, p)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the only slot
		defer wg.Done()
		if rr := hs.do(t); rr.Code != http.StatusOK {
			t.Errorf("occupant status = %d", rr.Code)
		}
	}()
	<-hs.entered

	wg.Add(1)
	go func() { // fills the queue; admitted after release
		defer wg.Done()
		if rr := hs.do(t); rr.Code != http.StatusOK {
			t.Errorf("queued request status = %d, want 200 after release", rr.Code)
		}
	}()
	hs.waitQueued(t, 1)

	// Slot and queue both full: immediate 429.
	rr := hs.do(t)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full status = %d, want 429", rr.Code)
	}
	if rr.Header().Get("Retry-After") != "2" {
		t.Errorf("429 Retry-After = %q, want 2", rr.Header().Get("Retry-After"))
	}

	close(hs.release)
	wg.Wait()

	if got := shedCount(hs.reg, "queue_full"); got != 1 {
		t.Errorf("queue_full count = %d, want 1", got)
	}
	// The metrics middleware saw the shed status too.
	if got := counterValue(hs.reg, "/test", "4xx"); got != 1 {
		t.Errorf("requests_total 4xx = %d, want 1", got)
	}
	if got := counterValue(hs.reg, "/test", "2xx"); got != 2 {
		t.Errorf("requests_total 2xx = %d, want 2 (gate did not recover)", got)
	}
	if errs := obs.Lint(hs.reg.Expose()); len(errs) != 0 {
		t.Fatalf("shed metrics exposition invalid: %v", errs)
	}
}

// TestShedQueueTimeout503: a queued request whose wait exceeds
// QueueTimeout is shed with 503 + Retry-After.
func TestShedQueueTimeout503(t *testing.T) {
	p := ShedPolicy{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 30 * time.Millisecond, RetryAfter: time.Second}
	hs := newShedHarness(t, p)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hs.do(t)
	}()
	<-hs.entered

	rr := hs.do(t) // queues, then times out: the occupant never yields
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued status = %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") != "1" {
		t.Errorf("503 Retry-After = %q, want 1", rr.Header().Get("Retry-After"))
	}

	close(hs.release)
	wg.Wait()

	if got := shedCount(hs.reg, "queue_timeout"); got != 1 {
		t.Errorf("queue_timeout count = %d, want 1", got)
	}
	if got := counterValue(hs.reg, "/test", "5xx"); got != 1 {
		t.Errorf("requests_total 5xx = %d, want 1", got)
	}
	// Recovered: the slot is free again.
	if rr := hs.do(t); rr.Code != http.StatusOK {
		t.Fatalf("post-burst status = %d, want 200", rr.Code)
	}
}

// TestShedCanceledWhileQueued: a client that gives up while queued is
// counted under its own reason, never admitted, and — having been
// served nothing — counted nowhere else: not as a 2xx, not in the
// latency histogram, not as an SLO event.
func TestShedCanceledWhileQueued(t *testing.T) {
	p := ShedPolicy{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 10 * time.Second}
	hs := newShedHarness(t, p)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hs.do(t)
	}()
	<-hs.entered

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/test", nil).WithContext(ctx)
	wg.Add(1)
	go func() {
		defer wg.Done()
		hs.h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	hs.waitQueued(t, 1)
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for shedCount(hs.reg, "canceled") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("canceled request never counted")
		}
		time.Sleep(time.Millisecond)
	}
	close(hs.release)
	wg.Wait()
	if got := len(hs.entered); got != 0 {
		t.Errorf("%d extra handler entries; the canceled request must not run", got)
	}
	// Only the occupant was served.
	if got := counterValue(hs.reg, "/test", "2xx"); got != 1 {
		t.Errorf("requests_total 2xx = %d, want 1 (the canceled request counted as served)", got)
	}
	if got := hs.m.latency.With("/test", "2xx").Count(); got != 1 {
		t.Errorf("latency 2xx count = %d, want 1", got)
	}
	if got := hs.m.sloTotal.Value(); got != 1 {
		t.Errorf("SLO total = %d, want 1", got)
	}
	if got := hs.m.sloErrors.Value(); got != 0 {
		t.Errorf("SLO errors = %d, want 0", got)
	}
}

// TestShedDisabled: a non-positive limit builds no gate, and the route
// runs its handler directly.
func TestShedDisabled(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	if g := newGate("/test", ShedPolicy{}, m); g != nil {
		t.Fatal("gate built with shedding disabled")
	}
	called := false
	h := serveRoute("/test", ShedPolicy{}, m, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		called = true
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/test", nil))
	if !called {
		t.Fatal("handler not reached with shedding disabled")
	}
}

// parkedWriter blocks inside the handler's first Write until released,
// holding the route's admission slot for as long as the test needs.
type parkedWriter struct {
	*httptest.ResponseRecorder
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *parkedWriter) Write(b []byte) (int, error) {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	return w.ResponseRecorder.Write(b)
}

// TestLiveSwapKeepsAdmissionGate: a snapshot swap must not hand a
// saturated route a fresh budget. With the only slot held by a request
// parked inside the handler, a swap followed by two more requests
// queues the first and sheds the second with 429 — exactly as without
// the swap — and the parked request finishes on the snapshot it
// started with while the queued one serves the new epoch.
func TestLiveSwapKeepsAdmissionGate(t *testing.T) {
	const route = "/api/v1/clique"
	before, after := Build(inferSeed(t, 81, 120)), Build(inferSeed(t, 82, 120))
	if before.ETag() == after.ETag() {
		t.Fatal("test snapshots share an ETag")
	}
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	live := NewLive(nil, Config{Registry: reg, Metrics: m,
		Shed: ShedPolicy{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 10 * time.Second}})
	live.Swap(before)

	parked := &parkedWriter{ResponseRecorder: httptest.NewRecorder(),
		entered: make(chan struct{}), release: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the only slot, across the swap
		defer wg.Done()
		live.ServeHTTP(parked, httptest.NewRequest("GET", route, nil))
	}()
	<-parked.entered

	live.Swap(after)

	queued := httptest.NewRecorder()
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		live.ServeHTTP(queued, httptest.NewRequest("GET", route, nil))
	}()
	for deadline := time.Now().Add(5 * time.Second); m.shedQueue.With(route).Value() < 1; {
		select {
		case <-done:
			t.Fatalf("request after the swap was admitted (status %d) while the slot was still held", queued.Code)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("request after the swap never queued")
		}
		time.Sleep(time.Millisecond)
	}

	shed := httptest.NewRecorder()
	live.ServeHTTP(shed, httptest.NewRequest("GET", route, nil))
	if shed.Code != http.StatusTooManyRequests {
		t.Errorf("slot and queue full after a swap: status %d, want 429", shed.Code)
	}

	close(parked.release)
	wg.Wait()
	if got := parked.Header().Get("Etag"); parked.Code != http.StatusOK || got != before.ETag() {
		t.Errorf("parked request: status %d etag %s, want 200 on the snapshot it started with (%s)", parked.Code, got, before.ETag())
	}
	if got := queued.Header().Get("Etag"); queued.Code != http.StatusOK || got != after.ETag() {
		t.Errorf("queued request: status %d etag %s, want 200 on the swapped-in snapshot (%s)", queued.Code, got, after.ETag())
	}
}
