package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/asrank-go/asrank/internal/apiserver"
	"github.com/asrank-go/asrank/internal/pool"
)

const (
	serveASes = 5000
	// serveEpochs is the warehouse mounted behind the snapshot, so the
	// time-travel routes are live.
	serveEpochs = 16
	// serveWindow is the width of the throughput windows.
	serveWindow = time.Second
)

// servePhase accumulates closed-loop load slices: clients that each
// wait for a reply before sending the next request, one connection each.
type servePhase struct {
	perKind   [numKinds][]float64 // latencies, ms
	all       []float64
	rates     []float64 // requests per second, one per slice
	traced    []float64 // latencies of the requests a span was recorded for
	plain     []float64 // and of those in the slices the traced pass left untraced
	status304 int
	shed      int
	bytes     int64
}

func (ph *servePhase) requests() int { return len(ph.all) }

// clientLog is one client's observations, merged after the fan-out
// joins so that nothing is shared while requests are timed.
type clientLog struct {
	kinds    []reqKind
	lat      []float64
	s304     int
	shed     int
	bytes    int64
	failed   int
	firstBad string
}

// target is what a load slice is aimed at.
type target struct {
	base              string
	asns              []uint32
	snapTag, chainTag string
}

// loadSlice drives clients closed-loop clients for serveWindow against
// the target and folds what they saw into ph. A response must be a 200
// or a 304 carrying the validator of its route's class; a 429, a 503 or
// a transport error is a failed request. slice numbers the call: it
// picks the request streams, and with a tracer every odd slice records
// one span per request.
func (ph *servePhase) loadSlice(tg target, clients int, seed int64, slice int, tr *tracer, checks *checker) {
	logs := make([]clientLog, clients)
	tr.pause(slice%2 == 0)
	begin := time.Now()
	deadline := begin.Add(serveWindow)
	pool.Range(clients, clients, func(shard, _, _ int) {
		c := newAPIClient(tg.base)
		defer c.close()
		c.snapTag, c.chainTag = tg.snapTag, tg.chainTag
		m := &mix{rng: newLCG(seed, slice*clients+shard), asns: tg.asns, epochs: func() int { return serveEpochs }}
		lg := &logs[shard]
		for {
			t0 := time.Now()
			if !t0.Before(deadline) {
				return
			}
			req := m.next()
			sp := tr.start(kindSpans[req.kind], 0, slice)
			resp := c.do(req)
			tr.end(sp)
			lg.kinds = append(lg.kinds, req.kind)
			lg.lat = append(lg.lat, ms(time.Since(t0)))
			lg.bytes += resp.bytes
			switch {
			case resp.err == nil && resp.status == http.StatusNotModified:
				lg.s304++
			case resp.status == http.StatusTooManyRequests || resp.status == http.StatusServiceUnavailable:
				lg.shed++
			}
			ok := resp.err == nil && (resp.status == http.StatusOK || resp.status == http.StatusNotModified) && resp.etag == c.validator(req.kind)
			if !ok {
				if lg.failed++; lg.firstBad == "" {
					lg.firstBad = fmt.Sprintf("GET %s: status %d etag %q (want %q) err %v", req.path, resp.status, resp.etag, c.validator(req.kind), resp.err)
				}
			}
		}
	})
	elapsed := time.Since(begin)
	n := 0
	for i := range logs {
		lg := &logs[i]
		checks.add(len(lg.lat), lg.failed, lg.firstBad)
		for j, k := range lg.kinds {
			ph.perKind[k] = append(ph.perKind[k], lg.lat[j])
		}
		if tr.active() {
			ph.traced = append(ph.traced, lg.lat...)
		} else {
			ph.plain = append(ph.plain, lg.lat...)
		}
		ph.all = append(ph.all, lg.lat...)
		ph.status304 += lg.s304
		ph.shed += lg.shed
		ph.bytes += lg.bytes
		n += len(lg.lat)
	}
	ph.rates = append(ph.rates, float64(n)/elapsed.Seconds())
	tr.pause(false)
}

// loaded is what back-to-back load slices saw: everything folded into
// ph, and per slice the median request latency, the CPU milliseconds per
// request and the kilobytes allocated per request.
type loaded struct {
	ph       *servePhase
	win      *window
	lat, cpu calibrated
	allocKB  []float64
}

// loadFor runs back-to-back slices for d, with the calibration kernel
// before and after each.
func loadFor(tg target, clients int, seed int64, firstSlice int, d time.Duration, tr *tracer, checks *checker) *loaded {
	ld := &loaded{ph: &servePhase{}, win: &window{}}
	type slice struct {
		begin, end usage
		lat        float64
		n          int
	}
	var slices []slice
	for i := 0; i < max(1, int(d/serveWindow)); i++ {
		ld.win.calibrate()
		sl := slice{begin: readUsage()}
		mark := ld.ph.requests()
		ld.ph.loadSlice(tg, clients, seed, firstSlice+i, tr, checks)
		sl.end = readUsage()
		if sl.n = ld.ph.requests() - mark; sl.n > 0 {
			sl.lat = median(ld.ph.all[mark:])
			slices = append(slices, sl)
		}
	}
	ld.win.calibrate()
	for _, sl := range slices {
		k := ld.win.around(sl.begin.at, sl.end.at)
		c, a, _ := sl.end.since(sl.begin)
		ld.lat.add(sl.lat, k)
		ld.cpu.add(c/float64(sl.n), k)
		ld.allocKB = append(ld.allocKB, a/float64(sl.n))
	}
	return ld
}

// runServe is the API user's use: a closed loop (API consumers are
// scripts that wait for each reply) of nproc clients against a static
// snapshot with a warehouse mounted. Only apiserver, and warehouse
// history reads, work; a change to core or stream must not move it.
func runServe(cfg config, r *result) error {
	setup, su := time.Now(), &window{}
	su.calibrate()
	c, err := generate(cfg.seed, serveASes, su)
	if err != nil {
		return err
	}
	r.corpus = c.counts
	snaps, etags, err := epochSeries(c, cfg.seed, serveEpochs, su)
	if err != nil {
		return err
	}
	c = nil
	dir := filepath.Join(outDir, fmt.Sprintf("serve-%d.wh", os.Getpid()))
	defer os.RemoveAll(dir)
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	for i, snap := range snaps {
		if _, err := d.store.Append(snap, "epoch-"+strconv.Itoa(i), etags[i]); err != nil {
			return fmt.Errorf("serve: append epoch %d: %w", i, err)
		}
	}
	su.calibrate()
	data := apiserver.BuildSnapshot(snaps[len(snaps)-1])
	snaps = nil
	d.live.Swap(data)
	d.health.MarkReady()

	probe := newAPIClient(d.base)
	asns, snapTag, err := sampleASNs(probe, 500)
	probe.close()
	if err != nil {
		return err
	}
	tg := target{base: d.base, asns: asns, snapTag: snapTag, chainTag: d.store.History().ETag()}
	r.checks.ok(snapTag == data.ETag(), "served ETag %s, built %s", snapTag, data.ETag())
	nproc := runtime.NumCPU()

	// Warm-up: connections, lazily built state, the runtime's heap
	// target. Its requests are checked and not timed.
	(&servePhase{}).loadSlice(tg, nproc, cfg.seed, 1000, nil, r.checks)
	if err := r.setSetup(setup, su); err != nil {
		return err
	}

	if !cfg.traced {
		ld := loadFor(tg, nproc, cfg.seed, 0, cfg.seconds, nil, r.checks)
		if ld.ph.requests() == 0 {
			return fmt.Errorf("serve: no request completed")
		}
		serveHeadline(r, ld)
		if err := r.setOp(ld.win, &ld.lat, &ld.cpu, median(ld.allocKB)); err != nil {
			return err
		}
		r.note("serve: %d requests from %d clients over %d one-second slices", ld.ph.requests(), nproc, len(ld.ph.rates))
	} else {
		// The traced pass splits its time: one client, nproc clients, the
		// same loop against a bare net/http handler, the handler alone.
		one := loadFor(tg, 1, cfg.seed, 2000, cfg.seconds/4, nil, r.checks).ph
		ld := loadFor(tg, nproc, cfg.seed, 0, cfg.seconds/2, r.trace, r.checks)
		ph := ld.ph
		if ph.requests() == 0 || one.requests() == 0 {
			return fmt.Errorf("serve: no request completed")
		}
		serveHeadline(r, ld)
		if err := r.setOp(ld.win, &ld.lat, &ld.cpu, median(ld.allocKB)); err != nil {
			return err
		}
		r.set("apiserver.req_per_s_1c", median(one.rates))
		r.set("apiserver.scaling", median(ph.rates)/median(one.rates))
		for k := reqKind(0); k < numKinds; k++ {
			r.set(kindSpans[k]+"_p50_ms", median(ph.perKind[k]))
		}
		r.set("apiserver.point_p99_ms", pctl(ph.perKind[kindPoint], 0.99))
		r.set("apiserver.cone_p99_ms", pctl(ph.perKind[kindCone], 0.99))
		r.set("apiserver.status_304_share", float64(ph.status304)/float64(ph.requests()))
		r.set("apiserver.shed_share", float64(ph.shed)/float64(ph.requests()))
		r.set("apiserver.bytes_per_resp", float64(ph.bytes)/float64(ph.requests()))
		r.set("apiserver.cpu_us_per_req", 1000*median(ld.cpu.ms))
		r.set("serve.traced_overhead_pct", 100*(median(ph.traced)-median(ph.plain))/median(ph.plain))
		noop, err := noopRate(nproc, cfg.seed, cfg.seconds/8, asns)
		if err != nil {
			return err
		}
		r.set("apiserver.noop_req_per_s", noop)
		r.set("apiserver.served_vs_noop", median(ph.rates)/noop)
		ns, allocs, err := handlerPoint(d.live, asns)
		if err != nil {
			return err
		}
		r.set("apiserver.handler_point_ns", ns)
		r.set("apiserver.handler_allocs_per_point", allocs)
		r.note("serve: %d requests from %d clients, %d from one client", ph.requests(), nproc, one.requests())
	}
	r.set("retained_heap_mb", retainedHeapMB(d, data))
	return d.close()
}

// serveHeadline sets the user-visible serving numbers of the nproc phase.
func serveHeadline(r *result, ld *loaded) {
	r.set("serve_req_per_s", median(ld.ph.rates))
	r.set("serve_req_per_cpu_s", 1000/median(ld.cpu.ms))
	r.set("serve_p99_ms", pctl(ld.ph.all, 0.99))
}

// noopRate runs the same client loop against a bare net/http handler
// answering 200 on the same loopback, so that the served rate can be
// read as a ratio of what the client and the HTTP stack alone allow —
// a number comparable across machines.
func noopRate(clients int, seed int64, d time.Duration, asns []uint32) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("noop listener: %w", err)
	}
	const tag = `"noop"`
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("ETag", tag)
		w.WriteHeader(http.StatusOK)
	})}
	served := make(chan error, 1)
	//lint:ignore noderivedgo the baseline listener lives for this function; Close below ends it and served joins it
	go func() { served <- srv.Serve(ln) }()
	tg := target{base: "http://" + ln.Addr().String(), asns: asns, snapTag: tag, chainTag: tag}
	ph := loadFor(tg, clients, seed, 3000, d, nil, &checker{}).ph
	err = srv.Close()
	<-served
	if err != nil {
		return 0, fmt.Errorf("noop listener: %w", err)
	}
	return median(ph.rates), nil
}

// nullWriter is a ResponseWriter that keeps nothing, so that
// handlerPoint measures the handler and not a recorder.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

// handlerPointCalls is how many direct calls handlerPoint averages over.
const handlerPointCalls = 200000

// handlerPoint measures the point-lookup route alone, by calling
// ServeHTTP directly with no socket: nanoseconds and allocations per
// request.
func handlerPoint(h http.Handler, asns []uint32) (ns, allocs float64, err error) {
	reqs := make([]*http.Request, len(asns))
	for i, asn := range asns {
		reqs[i], err = http.NewRequest(http.MethodGet, "/api/v1/asns/"+strconv.FormatUint(uint64(asn), 10), nil)
		if err != nil {
			return 0, 0, fmt.Errorf("serve: build request: %w", err)
		}
	}
	w := &nullWriter{h: make(http.Header)}
	begin := readUsage()
	for i := 0; i < handlerPointCalls; i++ {
		h.ServeHTTP(w, reqs[i%len(reqs)])
	}
	end := readUsage()
	return float64(end.at.Sub(begin.at)) / handlerPointCalls, float64(end.mallocs-begin.mallocs) / handlerPointCalls, nil
}
