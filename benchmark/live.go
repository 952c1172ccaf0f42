package main

import (
	"fmt"
	"log"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asrank-go/asrank/internal/collector"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/stream"
	"github.com/asrank-go/asrank/internal/streamtest"
	"github.com/asrank-go/asrank/internal/warehouse"
)

const (
	liveASes = 5000
	// epochPeriod is the open loop's schedule: one churn epoch is due
	// every period whether or not the previous one has been published.
	epochPeriod = 300 * time.Millisecond
	// readRate is the background reader's fixed request rate.
	readRate = 200
	// equivEvery picks the epochs checked against a from-scratch batch
	// run over the independent mirror; the last epoch always is.
	equivEvery = 20
	// minOnTime is how many epochs must have been taken up on time for
	// their median to be the gated latency; a run with fewer (the seed's
	// churn kept the system behind its schedule throughout) reports the
	// median service time of all its epochs in its place.
	minOnTime = 5
	// epochTimeout bounds the wait for one epoch's events to arrive.
	epochTimeout = 60 * time.Second
	// calibSlack is the idle time before the next epoch is due that the
	// publisher needs to fit a calibration sample in (calibRuns kernel
	// runs of about refCalibMs each).
	calibSlack = 150 * time.Millisecond
)

// stampSink is the benchmark's collector.RouteSink: it forwards every
// route event to the engine and counts, per vantage point, how many
// events have been handed over and how many the engine has finished
// with. Those counts are how the benchmark knows, from outside, that
// the sink has received an epoch's last event. On the traced pass it
// also records one span per forwarded call.
type stampSink struct {
	eng    *stream.Engine
	vpSlot map[uint32]int
	begun  []atomic.Int64 // per VP: events handed to the engine
	done   []atomic.Int64 // per VP: events the engine returned from
	wake   chan struct{}  // poked after every event; one pending poke is enough

	tr     *tracer
	parent atomic.Int64 // spanRef of the current epoch's ingest span
	op     atomic.Int64
}

func newStampSink(eng *stream.Engine, vps []uint32, tr *tracer) *stampSink {
	s := &stampSink{
		eng:    eng,
		vpSlot: make(map[uint32]int, len(vps)),
		begun:  make([]atomic.Int64, len(vps)),
		done:   make([]atomic.Int64, len(vps)),
		wake:   make(chan struct{}, 1),
		tr:     tr,
	}
	for i, vp := range vps {
		s.vpSlot[vp] = i
	}
	return s
}

func (s *stampSink) before(vp uint32) (slot int, sp spanRef) {
	slot = s.vpSlot[vp]
	s.begun[slot].Add(1)
	return slot, s.tr.start("stream.apply", spanRef(s.parent.Load()), int(s.op.Load()))
}

func (s *stampSink) after(slot int, sp spanRef) {
	s.tr.end(sp)
	s.done[slot].Add(1)
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *stampSink) Announce(coll string, vp uint32, prefix netip.Prefix, asns []uint32) {
	slot, sp := s.before(vp)
	s.eng.Announce(coll, vp, prefix, asns)
	s.after(slot, sp)
}

func (s *stampSink) Withdraw(coll string, vp uint32, prefix netip.Prefix) {
	slot, sp := s.before(vp)
	s.eng.Withdraw(coll, vp, prefix)
	s.after(slot, sp)
}

// reached reports whether every VP's counter has reached its target;
// exact additionally requires that none has passed it.
func reached(counts []atomic.Int64, targets []int64, exact bool) bool {
	for i := range counts {
		if n := counts[i].Load(); n < targets[i] || (exact && n != targets[i]) {
			return false
		}
	}
	return true
}

// waitFor blocks until the engine has finished every event up to the
// per-VP targets.
func (s *stampSink) waitFor(targets []int64) error {
	timeout := time.NewTimer(epochTimeout)
	defer timeout.Stop()
	for !reached(s.done, targets, false) {
		select {
		case <-s.wake:
		case <-timeout.C:
			return fmt.Errorf("live: the sink did not receive an epoch's events within %s", epochTimeout)
		}
	}
	return nil
}

// wireEpoch is one churn epoch ready to send: per VP, its UPDATEs
// concatenated, and the per-VP event totals through this epoch.
type wireEpoch struct {
	perVP  [][]byte
	cum    []int64
	events int
	bytes  int
}

// encodeEpochs pre-encodes the churn epochs (schedule epochs 1..n) so
// the sender only writes. base is the per-VP event count of the table
// the collector already holds.
func encodeEpochs(sched *streamtest.Schedule, slot map[uint32]int, base []int64) ([]wireEpoch, error) {
	nextHop := netip.AddrFrom4([4]byte{192, 0, 2, 1})
	cum := append([]int64(nil), base...)
	out := make([]wireEpoch, 0, len(sched.Epochs)-1)
	for _, evs := range sched.Epochs[1:] {
		we := wireEpoch{perVP: make([][]byte, len(base))}
		for _, ev := range evs {
			i, ok := slot[ev.Key.VP]
			if !ok {
				return nil, fmt.Errorf("live: schedule event from AS%d, which is not a vantage point", ev.Key.VP)
			}
			msg, err := encodeEvent(ev, nextHop)
			if err != nil {
				return nil, fmt.Errorf("live: encode event: %w", err)
			}
			we.perVP[i] = append(we.perVP[i], msg...)
			cum[i]++
			we.events++
			we.bytes += len(msg)
		}
		we.cum = append([]int64(nil), cum...)
		out = append(out, we)
	}
	return out, nil
}

// epochRecord is what the publisher measured for one churn epoch.
type epochRecord struct {
	freshness time.Duration // due → first 200 with the epoch's ETag
	taken     time.Time     // when the system could first take the epoch up: the later of due and the previous epoch's end
	done      time.Time     // the first 200 with the epoch's ETag
	lag       time.Duration // due → the sender's first byte
	onTime    bool          // the previous epoch was published before this one was due
	cpuMs     float64       // process CPU from the previous epoch's end to this one's
	allocKB   float64       // and bytes allocated over the same stretch
	traced    bool
	check     *warehouse.Snapshot // kept only for the epochs the mirror check reads
	times     publishTimes
}

// runLive is the operator's use and the north-star number: an open loop
// of BGP UPDATEs into a real collector socket feeding the streaming
// engine, published exactly as asrankd publishes, beside a fixed-rate
// API reader. collector, stream and core.InferIndexed dominate, and it
// is the only workload with writes beside reads: a commit-path change
// that stalls ingest or serving shows here and nowhere else.
func runLive(cfg config, r *result) error {
	setup, su := time.Now(), &window{}
	su.calibrate()
	nEpochs := max(2, int(cfg.seconds/epochPeriod))
	c, err := generate(cfg.seed, liveASes, su)
	if err != nil {
		return err
	}
	r.corpus = c.counts
	sched, err := churnSchedule(c, cfg.seed, nEpochs+1)
	if err != nil {
		return err
	}

	dir := filepath.Join(outDir, fmt.Sprintf("live-%d.wh", os.Getpid()))
	defer os.RemoveAll(dir)
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	eng := stream.New(stream.Options{Journal: d.journal})
	sink := newStampSink(eng, c.sim.VPs, r.trace)
	srv, err := collector.Listen("127.0.0.1:0", collector.Options{
		Routes:   sink,
		Registry: obs.Default(),
		Logf:     log.Printf,
		Journal:  d.journal,
	})
	if err != nil {
		return err
	}
	probe := newAPIClient(d.base)
	defer probe.close()

	// Bootstrap: the cold-start cost every restart pays. The full table
	// arrives through collector.ReplayAll, then the first publish.
	r.trace.pause(true)
	su.calibrate()
	bootStart := time.Now()
	if err := collector.ReplayAll(srv.Addr().String(), c.sim, collector.ReplayOptions{Workers: runtime.NumCPU()}); err != nil {
		return fmt.Errorf("live: bootstrap replay: %w", err)
	}
	base := make([]int64, len(c.sim.VPs))
	for _, ev := range sched.Epochs[0] {
		base[sink.vpSlot[ev.Key.VP]]++
	}
	r.checks.ok(reached(sink.done, base, true), "bootstrap delivered a different number of events than the table holds (%v per VP)", base)
	_, data, _, err := d.publish(eng)
	if err != nil {
		return err
	}
	resp := probe.get("/api/v1/health", "")
	bootstrap := time.Since(bootStart)
	r.checks.ok(resp.err == nil && resp.status == 200 && resp.etag == data.ETag(),
		"bootstrap probe: status %d etag %s err %v, built %s", resp.status, resp.etag, resp.err, data.ETag())

	su.calibrate()
	wire, err := encodeEpochs(sched, sink.vpSlot, base)
	if err != nil {
		return err
	}
	asns, _, err := sampleASNs(probe, 500)
	if err != nil {
		return err
	}
	speakers := make([]*speaker, len(c.sim.VPs))
	for i, vp := range c.sim.VPs {
		if speakers[i], err = dialSpeaker(srv.Addr().String(), vp); err != nil {
			return err
		}
	}
	c = nil // the generator's state is not the system's
	if err := r.setSetup(setup, su); err != nil {
		return err
	}

	// The measured window. Three goroutines generate load: the sender,
	// the reader, and this one, which publishes and probes.
	var (
		stopRead = make(chan struct{})
		// sent carries each epoch's first-byte time from the sender; the
		// buffer holds every epoch so the sender never waits on it.
		sent    = make(chan time.Time, nEpochs)
		sendErr error
		reads   readLog
		wg      sync.WaitGroup
	)
	win := &window{}
	win.calibrate()
	start := time.Now().Add(20 * time.Millisecond)
	due := func(k int) time.Time { return start.Add(time.Duration(k) * epochPeriod) }

	wg.Add(2)
	//lint:ignore noderivedgo the open loop's one sender; joined by wg.Wait below
	go func() {
		defer wg.Done()
		sendErr = sendEpochs(wire, speakers, due, sent)
	}()
	//lint:ignore noderivedgo the one background reader; stopped by stopRead and joined by wg.Wait below
	go func() {
		defer wg.Done()
		reads = readLoop(newAPIClient(d.base), &mix{
			rng:    newLCG(cfg.seed, 0),
			asns:   asns,
			epochs: d.store.Len, // an epoch whose ETag did not change is not stored
		}, start, stopRead)
	}()

	records := make([]epochRecord, nEpochs)
	backlogMax, owed := 0, false
	var pubErr error
	mark := readUsage() // the end of the previous epoch, after any kernel run
	for k := 0; k < nEpochs; k++ {
		rec := &records[k]
		rec.onTime = !mark.at.After(due(k))
		rec.taken = due(k)
		if !rec.onTime {
			rec.taken = mark.at
		}
		rec.traced = cfg.traced && k%2 == 1
		r.trace.pause(!rec.traced)
		root := r.trace.add("live.epoch", 0, k, due(k), time.Time{})
		ingest := r.trace.add("collector.ingest", root, k, due(k), time.Time{})
		sink.parent.Store(int64(ingest))
		sink.op.Store(int64(k))
		if pubErr = sink.waitFor(wire[k].cum); pubErr != nil {
			break
		}
		r.trace.end(ingest)
		firstByte := <-sent
		rec.lag = firstByte.Sub(due(k))
		r.trace.setStart(ingest, firstByte)
		r.trace.add("live.generator_lag", root, k, due(k), firstByte)

		pub := r.trace.start("live.publish", root, k)
		snap, data, pt, err := d.publish(eng)
		if err != nil {
			pubErr = err
			break
		}
		// The commit saw exactly this epoch when no later event had been
		// handed to the engine by the time publish returned.
		clean := reached(sink.begun, wire[k].cum, true)
		tPub := time.Now()
		resp := probe.get("/api/v1/health", "")
		tDone := time.Now()
		r.trace.end(pub)
		r.trace.end(root)
		livePublishSpans(r.trace, pub, k, tPub, tDone, pt)
		rec.freshness, rec.done, rec.times = tDone.Sub(due(k)), tDone, pt
		r.checks.ok(resp.err == nil && resp.status == 200 && resp.etag == data.ETag(),
			"epoch %d: GET after Swap answered status %d etag %s err %v, published %s", k, resp.status, resp.etag, resp.err, data.ETag())

		last := k == nEpochs-1
		owed = owed || (k+1)%equivEvery == 0
		if last || (owed && clean) {
			rec.check, owed = snap, false
		}
		backlogMax = max(backlogMax, int(rec.freshness/epochPeriod))
		end := readUsage()
		rec.cpuMs, rec.allocKB = 1000*(end.cpu-mark.cpu), float64(end.alloc-mark.alloc)/1024
		mark = end
		// The publisher idles until the next epoch arrives; the kernel
		// runs in that gap when it fits, never at the cost of an epoch.
		if !last && time.Until(due(k+1)) > calibSlack {
			win.calibrate()
			mark = readUsage()
		}
	}
	win.calibrate()
	close(stopRead)
	wg.Wait()
	r.trace.pause(false)
	if pubErr != nil {
		return pubErr
	}
	if sendErr != nil {
		return sendErr
	}

	// Output checks, outside the timed window.
	for _, sp := range speakers {
		if err := sp.close(); err != nil {
			return err
		}
	}
	r.checks.add(reads.attempted, reads.failed, reads.firstFailure)
	liveEquivChecks(r, sched, records)

	var onTime, service, cpu calibrated
	var fresh, allocKB, freshTraced, freshPlain, lag, segBytes []float64
	events, bytesIn := 0, 0
	for k := range records {
		rec := &records[k]
		f := ms(rec.freshness)
		kernel := win.around(rec.taken, rec.done)
		fresh = append(fresh, f)
		service.add(ms(rec.done.Sub(rec.taken)), kernel)
		if rec.onTime {
			onTime.add(f, kernel)
			if rec.traced {
				freshTraced = append(freshTraced, f)
			} else {
				freshPlain = append(freshPlain, f)
			}
		}
		cpu.add(rec.cpuMs, kernel)
		allocKB = append(allocKB, rec.allocKB)
		lag = append(lag, ms(rec.lag))
		segBytes = append(segBytes, float64(rec.times.segBytes))
		events += wire[k].events
		bytesIn += wire[k].bytes
	}
	sched, wire, speakers = nil, nil, nil
	// The gated figures are medians over epochs, and the latency is that
	// of the epochs the system took up on time. How often the inferred
	// clique flips under churn — and with it how many epochs are 0.5 s
	// rebuilds that queue the epochs behind them — is a property of the
	// seed's topology (0 to 9 of 33 epochs over forty seeds), so means,
	// or a median over queued epochs too, would gate on the input. For the
	// same reason a run that stayed behind its schedule is not a failed
	// run: the all-epoch freshness, the backlog and the rebuild count are
	// reported beside the gated figures, and a seed that left fewer than
	// minOnTime epochs on time is gated on the median service time of all
	// its epochs (a queued epoch's commit may have been done by its
	// predecessor's, so that median reads lower than the on-time one).
	op := &onTime
	if len(onTime.ms) < minOnTime {
		op = &service
		r.note("live: behind schedule throughout; the op time is the median service time of all %d epochs", nEpochs)
	}
	if err := r.setOp(win, op, &cpu, median(allocKB)); err != nil {
		return err
	}
	r.set("live_freshness_p50_ms", median(fresh))
	r.set("live_freshness_p90_ms", pctl(fresh, 0.90))
	r.set("live_bootstrap_s", bootstrap.Seconds())
	r.set("live_read_p99_ms", pctl(reads.latencies, 0.99))
	// Both generators run on a schedule; how late either of them sent.
	r.set("live.generator_lag_p99_ms", pctl(append(lag, reads.lag...), 0.99))
	r.set("live.backlog_max_epochs", float64(backlogMax))
	r.note("live: %d epochs of %d events every %s (freshness samples), %d of them taken up on time, %d reads at %d req/s",
		nEpochs, events/nEpochs, epochPeriod, len(onTime.ms), len(reads.latencies), readRate)

	if cfg.traced {
		liveLayerMetrics(r, records, srv, eng)
		// One UPDATE carries one event, so the two counts agree.
		r.set("collector.updates", float64(events))
		r.set("collector.events", float64(events))
		r.set("collector.bytes_in", float64(bytesIn))
		r.set("warehouse.segment_bytes_p50", median(segBytes))
		// With no on-time epoch on one side there is nothing to compare.
		if len(freshTraced) > 0 && len(freshPlain) > 0 {
			r.set("live.traced_overhead_pct", 100*(median(freshTraced)-median(freshPlain))/median(freshPlain))
		}
	}
	records = nil
	r.set("retained_heap_mb", retainedHeapMB(eng, srv, d))
	if err := srv.Close(); err != nil {
		return fmt.Errorf("live: close collector: %w", err)
	}
	return d.close()
}

// sendEpochs is the open loop's sender: at each epoch's due time it
// writes that epoch's UPDATEs on every session, regardless of how far
// the system has got, and keeps idle sessions alive. It reports each
// epoch's first-byte time on sent before writing.
func sendEpochs(wire []wireEpoch, speakers []*speaker, due func(int) time.Time, sent chan<- time.Time) error {
	for k := range wire {
		time.Sleep(time.Until(due(k)))
		now := time.Now()
		sent <- now
		for i, sp := range speakers {
			if buf := wire[k].perVP[i]; len(buf) > 0 {
				if err := sp.write(buf); err != nil {
					return err
				}
			} else if err := sp.keepalive(now); err != nil {
				return err
			}
		}
	}
	return nil
}

// readLog is what the background reader observed.
type readLog struct {
	latencies    []float64 // ms, from each request's due time
	lag          []float64 // ms, from due time to the request being sent
	attempted    int
	failed       int
	firstFailure string
}

// readLoop issues the serve mix at readRate over one connection until
// stop closes. Each request is timed from when it was due, so a stall
// counts against every request queued behind it. The client revalidates
// with the validators it last saw, as a cache would; a response must be
// a 200 or a 304 carrying a validator.
func readLoop(c *apiClient, m *mix, start time.Time, stop <-chan struct{}) readLog {
	defer c.close()
	var out readLog
	interval := time.Second / readRate
	for i := 0; ; i++ {
		dueAt := start.Add(time.Duration(i) * interval)
		select {
		case <-stop:
			return out
		case <-time.After(max(0, time.Until(dueAt))):
		}
		req := m.next()
		out.lag = append(out.lag, ms(time.Since(dueAt)))
		resp := c.do(req)
		out.latencies = append(out.latencies, ms(time.Since(dueAt)))
		out.attempted++
		if resp.err != nil || (resp.status != 200 && resp.status != 304) || resp.etag == "" {
			if out.failed++; out.firstFailure == "" {
				out.firstFailure = fmt.Sprintf("read %s: status %d etag %q err %v", req.path, resp.status, resp.etag, resp.err)
			}
			continue
		}
		if req.kind.timeTravel() {
			c.chainTag = resp.etag
		} else {
			c.snapTag = resp.etag
		}
	}
}

// livePublishSpans records the publish sequence's calls as children of
// the publish span, from the times publish took around them: the four
// calls run back to back and end at tPub, then the probe.
func livePublishSpans(tr *tracer, pub spanRef, op int, tPub, tDone time.Time, pt publishTimes) {
	at := tPub.Add(-(pt.commit + pt.build + pt.appendSeg + pt.swap))
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"stream.commit", pt.commit},
		{"apiserver.build", pt.build},
		{"warehouse.append", pt.appendSeg},
		{"apiserver.swap", pt.swap},
	} {
		tr.add(st.name, pub, op, at, at.Add(st.d))
		at = at.Add(st.d)
	}
	tr.add("apiserver.probe_get", pub, op, tPub, tDone)
}

// liveEquivChecks replays the schedule into an independent mirror and,
// at every epoch the publisher kept a snapshot for (each equivEvery-th
// and the last), compares what the engine committed with a from-scratch
// batch run over the mirror. An epoch whose commit may also have seen
// later events (the system was behind the schedule) has no mirror state
// to compare with; the publisher keeps the next clean epoch in its
// place.
func liveEquivChecks(r *result, sched *streamtest.Schedule, records []epochRecord) {
	mirror := make(streamtest.Mirror)
	for _, ev := range sched.Epochs[0] {
		mirror.Apply(ev)
	}
	for k := range records {
		for _, ev := range sched.Epochs[k+1] {
			mirror.Apply(ev)
		}
		if records[k].check == nil {
			continue
		}
		err := streamtest.EquivCheck(records[k].check, streamtest.BatchReference(mirror, stream.Options{}))
		r.checks.ok(err == nil, "epoch %d differs from the batch reference: %v", k, err)
	}
}

// liveLayerMetrics fills the per-layer numbers from the traced epochs'
// spans and from the CommitReport each commit returned.
func liveLayerMetrics(r *result, records []epochRecord, srv *collector.Server, eng *stream.Engine) {
	tr := r.trace
	r.set("collector.wire_ms", median(tr.perOp("collector.ingest", true)))
	r.set("stream.apply_ms", tr.medianMs("stream.apply"))
	r.set("stream.apply_max_ms", tr.longestMs("stream.apply"))
	r.set("stream.commit_ms", tr.medianMs("stream.commit"))
	r.set("stream.commit_p90_ms", pctl(tr.perOp("stream.commit", false), 0.90))
	r.set("apiserver.build_ms", tr.medianMs("apiserver.build"))
	r.set("warehouse.append_ms", tr.medianMs("warehouse.append"))
	r.set("apiserver.swap_ms", tr.medianMs("apiserver.swap"))
	r.set("apiserver.probe_get_ms", tr.medianMs("apiserver.probe_get"))

	// Time of an epoch no named layer span covers: what is left of the
	// epoch outside ingest and publish, and of publish outside its calls.
	whole := tr.opSums("live.epoch", false)
	loose := tr.opSums("live.epoch", true)
	var unattributed, share []float64
	for op, v := range tr.opSums("live.publish", true) {
		loose[op] += v
	}
	for op, v := range loose {
		unattributed = append(unattributed, v)
		share = append(share, 1-v/whole[op])
	}
	r.set("live.unattributed_ms", median(unattributed))
	r.note("live: named layer spans cover a median %.1f%% of a traced epoch (%d traced)", 100*median(share), len(share))

	// Program-reported phases and counts.
	var rankClique, infer, credit, slab, compose, dirty, recredited []float64
	rebuilds, slabFull := 0, 0
	for _, rec := range records {
		rep := rec.times.report
		rankClique = append(rankClique, rep.Phases.RankClique)
		infer = append(infer, rep.Phases.Infer)
		credit = append(credit, rep.Phases.Credit)
		slab = append(slab, rep.Phases.Slab)
		compose = append(compose, rep.Phases.Compose)
		dirty = append(dirty, float64(rep.DirtyLinks))
		recredited = append(recredited, float64(rep.RecreditedPaths))
		if rep.Decision == stream.DecisionRebuild {
			rebuilds++
		}
		if rep.Slab == stream.SlabFull {
			slabFull++
		}
	}
	n := float64(len(records))
	r.set("stream.rank_clique_ms", median(rankClique))
	r.set("stream.infer_ms", median(infer))
	r.set("stream.credit_ms", median(credit))
	r.set("stream.slab_ms", median(slab))
	r.set("stream.compose_ms", median(compose))
	r.set("stream.rebuild_epochs", float64(rebuilds))
	r.set("stream.incremental_share", 1-float64(rebuilds)/n)
	r.set("stream.slab_full_share", float64(slabFull)/n)
	r.set("stream.dirty_links_p50", median(dirty))
	r.set("stream.recredited_paths_p50", median(recredited))
	st := eng.Stats()
	r.set("stream.entries", float64(st.Entries))
	r.set("stream.rib_routes", float64(st.RIBRoutes))
	r.set("collector.retained_paths", float64(srv.Corpus().NumPaths()))
}
