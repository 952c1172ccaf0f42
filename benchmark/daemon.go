package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"github.com/asrank-go/asrank/internal/apiserver"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/oplog"
	"github.com/asrank-go/asrank/internal/stream"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// daemon is asrankd's serving side wired as cmd/asrankd wires it with
// default flags and no -debug-listen: the default shed policy,
// obs.Default(), the journal ring on (teeing to the standard logger,
// which main discards), a nil tracer, SLO tracker and readiness checks
// running, LogRequests around a mux that carries the health plane, and
// the same server timeouts. Only the listen address differs (a
// loopback port the kernel picks).
type daemon struct {
	journal *oplog.Journal
	store   *warehouse.Store
	metrics *apiserver.Metrics
	live    *apiserver.Live
	health  *apiserver.Health

	srv    *http.Server
	served chan error
	base   string // http://127.0.0.1:<port>
	stop   chan struct{}

	lastETag string
	epoch    int
}

// asrankd's flag defaults.
const (
	shedConcurrency = 64
	shedTimeout     = 250 * time.Millisecond
	shedRetryAfter  = time.Second
	sloTarget       = 0.999
	sloBurn         = 10.0
)

var sloWindows = []time.Duration{5 * time.Minute, time.Hour}

// startDaemon opens the warehouse at dir and brings the API up on a
// loopback listener. Until the first publish every data route answers
// 503, as a fresh asrankd does.
func startDaemon(dir string) (*daemon, error) {
	d := &daemon{stop: make(chan struct{}), served: make(chan error, 1)}
	d.journal = oplog.New(oplog.Options{RingSize: 4096, Logf: log.Printf, Registry: obs.Default()})
	var err error
	d.store, err = warehouse.Open(dir, warehouse.Options{Registry: obs.Default()})
	if err != nil {
		return nil, fmt.Errorf("open warehouse: %w", err)
	}
	d.journal.Info(context.Background(), "warehouse.open",
		oplog.String("dir", dir), oplog.Int("epochs", int64(d.store.Len())))

	d.metrics = apiserver.NewMetrics(obs.Default())
	d.live = apiserver.NewLive(d.store, apiserver.Config{
		Registry: obs.Default(),
		Metrics:  d.metrics,
		Shed: apiserver.ShedPolicy{
			MaxConcurrent: shedConcurrency,
			QueueTimeout:  shedTimeout,
			RetryAfter:    shedRetryAfter,
		},
	})
	d.health = apiserver.NewHealth(d.journal)
	slo := obs.NewSLOTracker(obs.Default(), sloWindows, d.metrics.Objectives(sloTarget)...)
	slo.Start(10*time.Second, d.stop)
	d.health.AddCheck("slo_burn", func() (bool, string) {
		if b := slo.MaxBurn(sloWindows[0]); b > sloBurn {
			return false, fmt.Sprintf("%s burn rate %.1f exceeds %.1f", sloWindows[0], b, sloBurn)
		}
		return true, ""
	})
	d.health.AddCheck("shed_queue", func() (bool, string) {
		if depth := d.metrics.ShedQueueDepth(); depth >= 2*shedConcurrency {
			return false, fmt.Sprintf("shed queue depth %.0f at capacity %d", depth, 2*shedConcurrency)
		}
		return true, ""
	})

	mux := http.NewServeMux()
	mux.Handle("GET /healthz", d.health.Healthz())
	mux.Handle("GET /readyz", d.health.Readyz())
	mux.Handle("/", d.live)
	d.srv = &http.Server{
		Handler:           apiserver.LogRequests(mux),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.base = "http://" + ln.Addr().String()
	//lint:ignore noderivedgo the API listener runs until close() shuts it down and waits for it
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// publishTimes is where one publish spent its time, taken around each
// public call.
type publishTimes struct {
	commit, build, appendSeg, swap time.Duration
	segBytes                       int64
	report                         stream.CommitReport
}

// publish is the body of asrankd's streaming `commit` closure — it is
// not callable from outside cmd/asrankd, so the sequence is copied
// here: CommitEpoch → BuildSnapshot → skip when the ETag is unchanged →
// AppendNote with the commit report → Live.Swap and readiness. It
// returns the snapshot and serving data it published.
func (d *daemon) publish(eng *stream.Engine) (*warehouse.Snapshot, *apiserver.Data, publishTimes, error) {
	var pt publishTimes
	ctx := context.Background()
	t0 := time.Now()
	snap, rep := eng.CommitEpoch(ctx)
	t1 := time.Now()
	data := apiserver.BuildSnapshot(snap)
	t2 := time.Now()
	pt.commit, pt.build, pt.report = t1.Sub(t0), t2.Sub(t1), rep
	if data.ETag() == d.lastETag {
		return snap, data, pt, nil // quiet interval: keep serving the current epoch
	}
	d.epoch++
	label := fmt.Sprintf("stream-%d", d.epoch)
	note, err := json.Marshal(rep)
	if err != nil {
		note = nil
	}
	t3 := time.Now()
	info, err := d.store.AppendNote(snap, label, data.ETag(), note)
	t4 := time.Now()
	if err != nil {
		return nil, nil, pt, fmt.Errorf("append epoch: %w", err)
	}
	d.journal.Info(ctx, "warehouse.append",
		oplog.String("label", label),
		oplog.Int("epoch", int64(info.ID)),
		oplog.String("kind", info.Kind),
		oplog.Int("bytes", info.Bytes))
	t5 := time.Now()
	d.live.Swap(data)
	d.health.MarkReady()
	pt.appendSeg, pt.swap, pt.segBytes = t4.Sub(t3), time.Since(t5), info.Bytes
	d.lastETag = data.ETag()
	d.journal.Info(ctx, "snapshot.publish",
		oplog.String("source", "stream"),
		oplog.String("label", label),
		oplog.Int("routes", int64(rep.RIBRoutes)),
		oplog.Int("entries", int64(rep.Entries)),
		oplog.String("etag", data.ETag()))
	return snap, data, pt, nil
}

// close drains the API server as asrankd does on SIGTERM and waits for
// the listener goroutine to end.
func (d *daemon) close() error {
	close(d.stop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if err != nil {
		err = errors.Join(err, d.srv.Close())
	}
	if serr := <-d.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}
