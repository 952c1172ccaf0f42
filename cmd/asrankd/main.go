// Command asrankd serves AS relationship and customer-cone data over
// HTTP as JSON — a small-scale counterpart of the public AS Rank API
// built on the paper's pipeline. It loads a path corpus, runs
// inference, and serves the results read-only.
//
// Usage:
//
//	asrankd -paths paths.txt -listen 127.0.0.1:8080
//	curl http://127.0.0.1:8080/api/v1/asns?limit=10
//	curl http://127.0.0.1:8080/api/v1/asns/3356/links
//
// With -warehouse, every inference is appended to a longitudinal epoch
// store and the time-travel routes come up; -paths then accepts a
// comma-separated list of corpora, ingested oldest first, each one an
// epoch (re-ingesting an unchanged corpus is detected by ETag and
// skipped). With a warehouse and no corpus at all, asrankd serves the
// store's latest epoch — the inference that produced it never re-runs:
//
//	asrankd -warehouse ./wh -paths jan.txt,feb.txt,mar.txt
//	curl http://127.0.0.1:8080/api/v1/epochs
//	curl http://127.0.0.1:8080/api/v1/asns/3356/history
//	curl 'http://127.0.0.1:8080/api/v1/diff?from=0&to=2'
//
// The API listener always carries the health plane:
//
//	curl http://127.0.0.1:8080/healthz   # liveness: 200 while the process runs
//	curl http://127.0.0.1:8080/readyz    # readiness: 503 until the first
//	                                     # snapshot, 503 again while degraded
//	                                     # (SLO burn, shed queue backlog)
//
// With -debug-listen, a second listener serves operational surfaces:
//
//	asrankd -paths paths.txt -debug-listen 127.0.0.1:6060
//	curl http://127.0.0.1:6060/metrics            # Prometheus text format
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile
//	curl http://127.0.0.1:6060/debug/trace?sec=10 > trace.json   # live span capture
//	curl http://127.0.0.1:6060/debug/flight > flight.json        # flight-recorder dump
//	curl http://127.0.0.1:6060/debug/oplog?n=50   # recent structured events (NDJSON)
//	curl http://127.0.0.1:6060/debug/epochs       # per-epoch commit provenance (streaming mode)
//
// Trace JSON loads directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing; append &format=tree for a terminal-readable view.
// API requests record spans into the flight recorder whenever
// -debug-listen is set, so a slow request from minutes ago is still
// explainable from /debug/flight — and when a scraper negotiates the
// OpenMetrics format (Accept: application/openmetrics-text), latency
// histogram buckets on /metrics carry exemplars naming the trace that
// landed in them, so an outlier bucket links straight to its span
// tree. Plain scrapes get classic 0.0.4 output, exemplar-free.
//
// Every operational moment (ingest, epoch publish, health transitions,
// drain) is also a structured journal event; -oplog appends them as
// NDJSON to a file for post-mortems that outlive the in-memory ring.
//
// With -stream-listen, asrankd runs a live BGP collector and the
// incremental inference engine instead of (or alongside) batch
// ingestion: BGP speakers session in, announcements and withdrawals
// fold into the streaming corpus as they arrive, and every
// -epoch-interval the engine commits a converged epoch — proven
// bit-identical to a batch re-run by internal/streamtest — that is
// appended to the warehouse (when configured) and hot-swapped into the
// serving snapshot atomically. Each commit's provenance record (the
// rebuild-vs-incremental decision, dirty counts, phase timings, the
// update-to-serve watermark) is journaled, annotated onto the
// warehouse manifest entry, and served on /debug/epochs:
//
//	asrankd -stream-listen 127.0.0.1:1790 -epoch-interval 5s -warehouse ./wh
//	bgpsim -topo topo.txt -vps 8 -seed 42 -replay 127.0.0.1:1790
//	curl http://127.0.0.1:8080/api/v1/health     # etag advances per epoch
//
// SIGINT/SIGTERM drain in-flight requests via http.Server.Shutdown
// before exiting; the debug listener's streaming handlers (a live
// /debug/trace capture, say) are cancelled rather than waited out, so
// a watching client never holds the drain hostage.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/asrank-go/asrank/internal/apiserver"
	"github.com/asrank-go/asrank/internal/collector"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/oplog"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stream"
	"github.com/asrank-go/asrank/internal/trace"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// sloWindows are the burn-rate windows the tracker maintains: the short
// window trips the degraded check fast, the long one keeps a slower
// bleed visible after the spike passes.
var sloWindows = []time.Duration{5 * time.Minute, time.Hour}

// Serving policy. Deployment settings (addresses, files, intervals) are
// flags; these have one value in use and are not. The admission limits
// are apiserver.DefaultShedPolicy.
const (
	sloTarget    = 0.999            // availability objective behind the burn-rate gauges
	sloBurnLimit = 10.0             // 5m burn rate above which /readyz reports degraded
	drainTimeout = 10 * time.Second // how long in-flight requests get on SIGINT/SIGTERM
)

func main() {
	var (
		pathsFile    = flag.String("paths", "", "text path file, or a comma-separated epoch sequence with -warehouse")
		mrtFile      = flag.String("mrt", "", "MRT RIB file (alternative to -paths)")
		warehouseDir = flag.String("warehouse", "", "epoch warehouse directory: persist every inference, serve time-travel routes (off when empty)")
		listen       = flag.String("listen", "127.0.0.1:8080", "listen address")
		debugListen  = flag.String("debug-listen", "", "serve /metrics and /debug/pprof/ on this address (off when empty)")
		oplogFile    = flag.String("oplog", "", "append structured journal events as NDJSON to this file (off when empty)")

		streamListen  = flag.String("stream-listen", "", "run a live BGP collector on this address and infer incrementally (off when empty)")
		epochInterval = flag.Duration("epoch-interval", 10*time.Second, "how often the streaming engine commits and publishes an epoch")
	)
	flag.Parse()
	if *pathsFile != "" && *mrtFile != "" {
		log.Fatal("asrankd: use -paths or -mrt, not both")
	}

	// The tracer exists only when the debug surface does: spans are read
	// through /debug/trace and /debug/flight, so without a listener a
	// tracer would record into the void. A nil tracer costs instrumented
	// code one branch.
	var tracer *trace.Tracer
	if *debugListen != "" {
		tracer = trace.New()
	}

	// The journal is the structured successor of the ad-hoc text log:
	// every event lands in an in-memory ring (/debug/oplog), tees to the
	// text log for the terminal, and optionally appends NDJSON to -oplog
	// for post-mortems that outlive the process.
	var sink *os.File
	if *oplogFile != "" {
		var err error
		sink, err = os.OpenFile(*oplogFile, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("asrankd: %v", err)
		}
		defer sink.Close()
	}
	journalOpts := oplog.Options{
		RingSize: 4096,
		Logf:     log.Printf,
		Registry: obs.Default(),
	}
	if sink != nil {
		journalOpts.Sink = sink
	}
	journal := oplog.New(journalOpts)

	var store *warehouse.Store
	if *warehouseDir != "" {
		var err error
		store, err = warehouse.Open(*warehouseDir, warehouse.Options{
			Registry: obs.Default(),
			Tracer:   tracer,
		})
		if err != nil {
			log.Fatalf("asrankd: %v", err)
		}
		journal.Info(context.Background(), "warehouse.open",
			oplog.String("dir", *warehouseDir),
			oplog.Int("epochs", int64(store.Len())))
	}

	// Assemble the epoch sequence to ingest. Without a warehouse, -paths
	// names exactly one corpus, as it always did.
	var corpora []string
	if *pathsFile != "" {
		corpora = strings.Split(*pathsFile, ",")
		if store == nil && len(corpora) > 1 {
			log.Fatal("asrankd: multiple -paths corpora require -warehouse")
		}
	}
	if len(corpora) == 0 && *mrtFile == "" && *streamListen == "" && (store == nil || store.Len() == 0) {
		log.Fatal("asrankd: one of -paths, -mrt, -stream-listen, or a non-empty -warehouse is required")
	}

	metrics := apiserver.NewMetrics(obs.Default())
	shed := apiserver.DefaultShedPolicy()
	live := apiserver.NewLive(store, apiserver.Config{
		Registry: obs.Default(),
		Tracer:   tracer,
		Metrics:  metrics,
		Shed:     shed,
	})

	// The health plane: /readyz answers 503 until the first snapshot
	// swap, then degrades (still 503, different body) when the SLO burn
	// rate or the shed queue says new traffic should go elsewhere.
	health := apiserver.NewHealth(journal)
	slo := obs.NewSLOTracker(obs.Default(), sloWindows, metrics.Objectives(sloTarget)...)
	stopPoll := make(chan struct{})
	defer close(stopPoll)
	slo.Start(10*time.Second, stopPoll)
	health.AddCheck("slo_burn", func() (bool, string) {
		if b := slo.MaxBurn(sloWindows[0]); b > sloBurnLimit {
			return false, fmt.Sprintf("%s burn rate %.1f exceeds %.1f", sloWindows[0], b, sloBurnLimit)
		}
		return true, ""
	})
	health.AddCheck("shed_queue", func() (bool, string) {
		if d := metrics.ShedQueueDepth(); d >= float64(shed.MaxQueue) {
			return false, fmt.Sprintf("shed queue depth %.0f at capacity %d", d, shed.MaxQueue)
		}
		return true, ""
	})

	// publish swaps the serving snapshot and flips readiness on the
	// first swap — the moment data routes stop answering 503.
	var servedETag string
	publish := func(data *apiserver.Data) {
		live.Swap(data)
		health.MarkReady()
		servedETag = data.ETag()
	}

	// Serve whatever the store already holds before any inference runs,
	// so restarts come up instantly on the previous epoch.
	if store != nil {
		if snap, info, ok := store.Latest(); ok {
			data := apiserver.BuildSnapshot(snap)
			publish(data)
			journal.Info(context.Background(), "snapshot.publish",
				oplog.String("source", "warehouse"),
				oplog.String("label", info.Label),
				oplog.Int("epoch", int64(info.ID)),
				oplog.String("etag", data.ETag()))
		}
	}

	// publishEpoch is the one publish sequence batch ingests and
	// streaming commits share: build the serving data, skip an epoch
	// whose ETag is already being served (a re-ingested corpus, a quiet
	// streaming interval — the served ETag is also the store's latest,
	// so restarts stay idempotent), append to the warehouse with the
	// caller's manifest note, hot-swap, journal. It reports whether a
	// new epoch went out. Callers run one at a time: the batch ingests
	// finish before the streaming ticker starts.
	publishEpoch := func(ctx context.Context, snap *warehouse.Snapshot, label, source string, note json.RawMessage) bool {
		data := apiserver.BuildSnapshot(snap)
		if data.ETag() == servedETag {
			return false
		}
		if store != nil {
			info, err := store.AppendNote(snap, label, data.ETag(), note)
			if err != nil {
				log.Fatalf("asrankd: %v", err)
			}
			journal.Info(ctx, "warehouse.append",
				oplog.String("label", label),
				oplog.Int("epoch", int64(info.ID)),
				oplog.String("kind", info.Kind),
				oplog.Int("bytes", info.Bytes))
		}
		publish(data)
		journal.Info(ctx, "snapshot.publish",
			oplog.String("source", source),
			oplog.String("label", label),
			oplog.String("etag", data.ETag()))
		return true
	}

	// Ingest each corpus as one epoch, hot-swapping the serving snapshot
	// after every append. The read runs under the ingest's span, so the
	// flight recorder shows it beside the inference it feeds.
	ingest := func(file string, read func(context.Context, io.Reader) (*paths.Dataset, error)) {
		ctx, span := tracer.StartSpan(context.Background(), "asrankd.startup")
		defer span.End()
		f, err := os.Open(file)
		if err != nil {
			log.Fatalf("asrankd: %v", err)
		}
		ds, err := read(ctx, f)
		f.Close()
		if err != nil {
			log.Fatalf("asrankd: %v", err)
		}
		start := time.Now()
		res := core.InferCtx(ctx, ds, core.Options{Sanitize: true})
		journal.Info(ctx, "ingest.done",
			oplog.String("label", file),
			oplog.Int("links", int64(len(res.Rels))),
			oplog.Duration("took", time.Since(start)))
		if !publishEpoch(ctx, warehouse.FromResult(res), file, "batch", nil) {
			journal.Info(ctx, "ingest.unchanged", oplog.String("label", file))
		}
	}

	for _, corpus := range corpora {
		ingest(corpus, paths.ReadCtx)
	}
	if *mrtFile != "" {
		ingest(*mrtFile, func(_ context.Context, r io.Reader) (*paths.Dataset, error) {
			ds, _, err := paths.FromMRT(r, "asrankd")
			return ds, err
		})
	}

	// Streaming mode: a live collector feeds the incremental engine, and
	// epochs commit on a timer, publishing exactly like batch ingests —
	// an ETag-deduplicated warehouse append, then an atomic hot swap of
	// the serving snapshot. In-flight requests keep the snapshot they
	// started on; the next request sees the new epoch and ETag. Each
	// commit's provenance report is journaled by the engine, pinned to
	// the warehouse manifest entry, and served on /debug/epochs.
	var eng *stream.Engine
	var streamSrv *collector.Server
	stopStream := make(chan struct{})
	defer close(stopStream)
	if *streamListen != "" {
		eng = stream.New(stream.Options{Journal: journal})
		var serr error
		streamSrv, serr = collector.Listen(*streamListen, collector.Options{
			Routes:   eng,
			Registry: obs.Default(),
			Tracer:   tracer,
			Logf:     log.Printf,
			Journal:  journal,
		})
		if serr != nil {
			log.Fatalf("asrankd: %v", serr)
		}
		log.Printf("asrankd: streaming collector on %s, committing every %s", streamSrv.Addr(), *epochInterval)

		epoch := 0
		commit := func() {
			if epoch == 0 && eng.Stats().RIBRoutes == 0 {
				// Nothing collected yet this process: keep the warming 503
				// (or the resumed warehouse head) instead of publishing an
				// empty epoch.
				return
			}
			ctx, span := tracer.StartSpan(context.Background(), "asrankd.stream_epoch")
			defer span.End()
			snap, rep := eng.CommitEpoch(ctx)
			note, merr := json.Marshal(rep)
			if merr != nil {
				note = nil
			}
			// A quiet interval publishes nothing and keeps its label.
			if publishEpoch(ctx, snap, fmt.Sprintf("stream-%d", epoch+1), "stream", note) {
				epoch++
			}
		}
		//lint:ignore noderivedgo epoch ticker lives until signal-driven drain, not a bounded fan-out
		go func() {
			tick := time.NewTicker(*epochInterval)
			defer tick.Stop()
			for {
				select {
				case <-stopStream:
					return
				case <-tick.C:
					commit()
				}
			}
		}()
	}

	// The health plane rides the API listener (an orchestrator probing
	// readiness must see the same address it routes traffic to), outside
	// the Live swap so probes work before the first snapshot.
	apiMux := http.NewServeMux()
	apiMux.Handle("GET /healthz", health.Healthz())
	apiMux.Handle("GET /readyz", health.Readyz())
	apiMux.Handle("/", live)

	api := &http.Server{
		Addr:              *listen,
		Handler:           apiserver.LogRequests(apiMux),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
	}

	// The debug listener is deliberately separate from the API address:
	// /metrics and pprof never share a port (or timeouts) with user
	// traffic. Streaming mode adds the epoch provenance timeline.
	var debug *oplog.DebugServer
	if *debugListen != "" {
		obs.NewRuntimeMetrics(obs.Default()).Start(0, stopPoll)
		debug = oplog.NewDebugServer(*debugListen, obs.Default(), tracer, journal)
		if eng != nil {
			debug.Handle("GET /debug/epochs", stream.EpochsHandler(eng))
		}
		//lint:ignore noderivedgo debug listener lives for the process lifetime, not a bounded fan-out
		go func() {
			log.Printf("asrankd: debug surface on http://%s/metrics", *debugListen)
			if err := debug.ListenAndServe(); err != http.ErrServerClosed {
				log.Printf("asrankd: debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	//lint:ignore noderivedgo API listener runs until signal-driven drain, not a bounded fan-out
	go func() {
		log.Printf("asrankd: serving on http://%s/api/v1/", *listen)
		errc <- api.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != http.ErrServerClosed {
			log.Fatalf("asrankd: %v", err)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills immediately
		drainStart := time.Now()
		journal.Info(context.Background(), "drain.begin",
			oplog.Int("in_flight", int64(metrics.InFlight())),
			oplog.Duration("timeout", drainTimeout))
		if streamSrv != nil {
			streamSrv.Close()
		}
		sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := api.Shutdown(sctx); err != nil {
			journal.Warn(context.Background(), "drain.forced",
				oplog.String("error", err.Error()),
				oplog.Int("in_flight", int64(metrics.InFlight())))
			api.Close()
		}
		if debug != nil {
			debug.Shutdown(sctx)
		}
		journal.Info(context.Background(), "drain.done",
			oplog.Int("in_flight", int64(metrics.InFlight())),
			oplog.Duration("took", time.Since(drainStart)))
	}
}
