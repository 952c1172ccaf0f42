package oplog

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/trace"
)

// TestDebugServerRoutes pins the debug surface's route table: asrankd
// and collector both mount exactly what NewDebugServer registers, so
// this is the one place the nine shared endpoints are listed.
func TestDebugServerRoutes(t *testing.T) {
	d := NewDebugServer("127.0.0.1:0", obs.NewRegistry(), nil, nil)
	for _, tc := range []struct{ method, path, pattern string }{
		{"GET", "/metrics", "GET /metrics"},
		{"GET", "/debug/pprof/", "/debug/pprof/"},
		{"GET", "/debug/pprof/heap", "/debug/pprof/"},
		{"GET", "/debug/pprof/cmdline", "/debug/pprof/cmdline"},
		{"GET", "/debug/pprof/profile", "/debug/pprof/profile"},
		{"POST", "/debug/pprof/symbol", "/debug/pprof/symbol"},
		{"GET", "/debug/pprof/trace", "/debug/pprof/trace"},
		{"GET", "/debug/trace", "GET /debug/trace"},
		{"GET", "/debug/flight", "GET /debug/flight"},
		{"GET", "/debug/oplog", "GET /debug/oplog"},
		{"GET", "/debug/epochs", ""}, // asrankd adds it with Handle; collector has no engine
		{"POST", "/metrics", ""},
	} {
		req, err := http.NewRequest(tc.method, tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, got := d.mux.Handler(req); got != tc.pattern {
			t.Errorf("%s %s routed to %q, want %q", tc.method, tc.path, got, tc.pattern)
		}
	}
	d.Handle("GET /debug/epochs", http.NotFoundHandler())
	req, _ := http.NewRequest("GET", "/debug/epochs", nil)
	if _, got := d.mux.Handler(req); got != "GET /debug/epochs" {
		t.Errorf("Handle did not mount /debug/epochs (routed to %q)", got)
	}
}

// TestDrainWithOpenTraceCapture is the drain regression test: a client
// holding a long streaming /debug/trace capture open must not hold
// shutdown hostage. Shutdown cancels the server's BaseContext first, so
// the capture ends at its next context check and the drain completes in
// milliseconds instead of waiting out the 60-second capture window.
func TestDrainWithOpenTraceCapture(t *testing.T) {
	tracer := trace.New()
	journal := New(Options{RingSize: 64})
	srv := NewDebugServer("127.0.0.1:0", obs.NewRegistry(), tracer, journal)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	// The journal endpoint is mounted and serves before any drain.
	journal.Info(context.Background(), "drain.begin", Int("in_flight", 0))
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/oplog?n=10")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/oplog = %d", resp.StatusCode)
	}

	// A raw client starts a 60s capture and then just sits there. The
	// handler writes nothing until the capture ends, so there is no
	// response to wait for — only a goroutine parked inside the server.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /debug/trace?sec=60 HTTP/1.1\r\nHost: asrankd\r\n\r\n")
	// Give the request a moment to reach the handler; if the cancel wins
	// the race anyway, the capture aborts on entry — same outcome, still
	// fast, so the test is sound under either interleaving.
	time.Sleep(200 * time.Millisecond)

	start := time.Now()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown with open capture: %v (after %s)", err, time.Since(start))
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("drain took %s; the open capture held shutdown hostage", took)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
}
