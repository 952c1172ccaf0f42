// Command collector runs a miniature BGP route collector: it accepts
// BGP sessions, keeps the route table they converge to, and archives
// the raw updates as BGP4MP MRT records — a small-scale Route Views.
//
// Usage:
//
//	collector -listen 127.0.0.1:1790 -archive updates.mrt -paths paths.txt
//
// The server runs until interrupted (SIGINT/SIGTERM), then writes the
// routes then live as a path corpus and exits. Feed it with:
//
//	bgpsim -topo topo.txt -replay 127.0.0.1:1790
//
// With -debug-listen, a second listener serves the same operational
// surfaces as asrankd:
//
//	collector -listen 127.0.0.1:1790 -debug-listen 127.0.0.1:6061
//	curl http://127.0.0.1:6061/metrics                           # Prometheus text format
//	curl http://127.0.0.1:6061/debug/trace?sec=10 > trace.json   # live session spans
//	curl http://127.0.0.1:6061/debug/flight > flight.json        # flight-recorder dump
//	go tool pprof http://127.0.0.1:6061/debug/pprof/profile
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/asrank-go/asrank/internal/collector"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/oplog"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/trace"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:1790", "listen address")
		localAS   = flag.Uint("as", 64497, "collector AS number")
		archive   = flag.String("archive", "", "BGP4MP MRT archive file")
		out       = flag.String("paths", "-", "path corpus written on shutdown ('-' = stdout)")
		malformed = flag.String("malformed", "teardown", "malformed-UPDATE policy: teardown or skip")
		hold      = flag.Uint("hold", 0, "advertised hold time in seconds (0 = default)")
		stats     = flag.Bool("stats", false, "print the metrics report to stderr on shutdown")

		debugListen = flag.String("debug-listen", "", "serve /metrics, /debug/pprof/, /debug/trace, and /debug/flight on this address (off when empty)")
	)
	flag.Parse()
	policy, err := collector.ParseMalformedPolicy(*malformed)
	if err != nil {
		log.Fatalf("collector: %v", err)
	}

	// As in asrankd, the tracer exists only when the debug surface does:
	// session spans are read back through /debug/trace and /debug/flight.
	var tracer *trace.Tracer
	if *debugListen != "" {
		tracer = trace.New()
	}

	// The journal keeps a ring of structured lifecycle events (served on
	// /debug/oplog when the debug surface is up) and tees each one to
	// the text log. A server handed a journal reports session up, session
	// end and malformed updates through it alone, so each prints once;
	// its Logf carries only what is not journaled (accept and archive
	// errors).
	journal := oplog.New(oplog.Options{
		RingSize: 1024,
		Logf:     log.Printf,
		Registry: obs.Default(),
	})

	var arch io.Writer
	if *archive != "" {
		f, err := os.Create(*archive)
		if err != nil {
			log.Fatalf("collector: %v", err)
		}
		arch = f
	}
	srv, err := collector.Listen(*listen, collector.Options{
		LocalAS:   uint32(*localAS),
		HoldTime:  uint16(*hold),
		Archive:   arch,
		Malformed: policy,
		Logf:      log.Printf,
		Tracer:    tracer,
		Journal:   journal,
	})
	if err != nil {
		log.Fatalf("collector: %v", err)
	}
	log.Printf("collector: listening on %s (AS%d)", srv.Addr(), *localAS)

	// Debug surface: the same server asrankd mounts on -debug-listen.
	var debug *oplog.DebugServer
	stopPoll := make(chan struct{})
	defer close(stopPoll)
	if *debugListen != "" {
		obs.NewRuntimeMetrics(obs.Default()).Start(0, stopPoll)
		debug = oplog.NewDebugServer(*debugListen, obs.Default(), tracer, journal)
		//lint:ignore noderivedgo debug listener lives for the process lifetime, not a bounded fan-out
		go func() {
			log.Printf("collector: debug surface on http://%s/metrics", *debugListen)
			if err := debug.ListenAndServe(); err != http.ErrServerClosed {
				log.Printf("collector: debug listener: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("collector: shutting down")
	if err := srv.Close(); err != nil {
		log.Printf("collector: close: %v", err)
	}
	if debug != nil {
		// Open trace captures are cancelled; a profile mid-stream gets a
		// few seconds to finish.
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		debug.Shutdown(sctx)
	}
	sessions, updates := srv.Stats()
	log.Printf("collector: %d sessions, %d updates", sessions, updates)
	if *stats {
		if err := obs.Default().WriteReport(os.Stderr); err != nil {
			log.Printf("collector: metrics report: %v", err)
		}
	}

	w := os.Stdout
	if *out != "-" {
		if w, err = os.Create(*out); err != nil {
			log.Fatalf("collector: %v", err)
		}
	}
	corpus := srv.Corpus()
	if err := paths.Write(w, corpus); err != nil {
		log.Fatalf("collector: writing corpus: %v", err)
	}
	// Quota and NFS report a failed write only at Close.
	closeErr := w.Close()
	if f, ok := arch.(*os.File); ok {
		closeErr = errors.Join(closeErr, f.Close())
	}
	if closeErr != nil {
		log.Fatalf("collector: %v", closeErr)
	}
	fmt.Fprintf(os.Stderr, "wrote %d paths\n", corpus.NumPaths())
}
