package oplog

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/trace"
)

// DebugServer is the operational HTTP surface a daemon mounts on its
// -debug-listen address, deliberately separate from any user-facing
// listener: /metrics, pprof, the live span capture, the flight
// recorder, and the journal. It sets only ReadHeaderTimeout, never a
// write timeout — CPU profiles and live trace captures stream for
// longer than any API response.
type DebugServer struct {
	*http.Server
	mux    *http.ServeMux
	cancel context.CancelFunc
}

// NewDebugServer assembles the debug surface for addr over the three
// telemetry stores; tracer and journal may be nil (their endpoints then
// serve empty dumps).
func NewDebugServer(addr string, reg *obs.Registry, tracer *trace.Tracer, journal *Journal) *DebugServer {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /debug/trace", trace.CaptureHandler(tracer))
	mux.Handle("GET /debug/flight", trace.FlightHandler(tracer))
	mux.Handle("GET /debug/oplog", Handler(journal))
	ctx, cancel := context.WithCancel(context.Background())
	return &DebugServer{
		Server: &http.Server{
			Addr:              addr,
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			BaseContext:       func(net.Listener) context.Context { return ctx },
		},
		mux:    mux,
		cancel: cancel,
	}
}

// Handle mounts one more endpoint (asrankd's /debug/epochs).
func (d *DebugServer) Handle(pattern string, h http.Handler) { d.mux.Handle(pattern, h) }

// Shutdown drains the server. Every in-flight request's context is
// cancelled first, so streaming handlers (a 60s /debug/trace capture,
// say) end at their next context check instead of holding the drain
// hostage for their full window.
func (d *DebugServer) Shutdown(ctx context.Context) error {
	d.cancel()
	return d.Server.Shutdown(ctx)
}

// Handler serves the journal's ring over HTTP — the /debug/oplog
// surface. Query parameters:
//
//	n=<count>     keep only the newest count events (default all)
//	sev=<level>   keep only events at or above debug|info|warn|error
//	format=json   wrap the events in a JSON array instead of NDJSON
//
// The default output is NDJSON, one event per line, identical to the
// sink format — so `curl /debug/oplog | tail` and the shipped log
// agree byte-for-byte on what an event looks like.
func Handler(j *Journal) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		events := j.Recent()
		if s := r.URL.Query().Get("sev"); s != "" {
			min, ok := parseSeverity(s)
			if !ok {
				http.Error(w, "oplog: bad sev (want debug|info|warn|error)", http.StatusBadRequest)
				return
			}
			kept := events[:0]
			for _, e := range events {
				if e.Sev >= min {
					kept = append(kept, e)
				}
			}
			events = kept
		}
		if s := r.URL.Query().Get("n"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "oplog: bad n", http.StatusBadRequest)
				return
			}
			if n < len(events) {
				events = events[len(events)-n:]
			}
		}
		asArray := r.URL.Query().Get("format") == "json"
		if asArray {
			w.Header().Set("Content-Type", "application/json")
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		var buf []byte
		if asArray {
			buf = append(buf, '[')
		}
		for i, e := range events {
			line := appendNDJSON(nil, e)
			if asArray {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, line[:len(line)-1]...) // strip the newline
			} else {
				buf = append(buf, line...)
			}
		}
		if asArray {
			buf = append(buf, ']', '\n')
		}
		_, _ = w.Write(buf)
	})
}

func parseSeverity(s string) (Severity, bool) {
	switch s {
	case "debug":
		return Debug, true
	case "info":
		return Info, true
	case "warn":
		return Warn, true
	case "error":
		return Error, true
	}
	return 0, false
}
