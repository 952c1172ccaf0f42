package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/bgp"
	"github.com/asrank-go/asrank/internal/collector"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/streamtest"
)

// testASes is a corpus small enough for unit tests that still has a
// full set of vantage points.
const testASes = 300

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 1200; n++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1) // sorted: the value is its 1-based rank
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			p, ok := percentile(v, q)
			if !ok {
				if p != 0 {
					t.Fatalf("n=%d q=%v: unsupported percentile reads %v, want 0", n, q, p)
				}
				continue
			}
			if beyond := n - int(p); beyond < minBeyond {
				t.Fatalf("n=%d q=%v: reported rank %v with only %d samples beyond it", n, q, p, beyond)
			}
		}
	}
	if _, ok := percentile(make([]float64, 99), 0.90); ok {
		t.Error("p90 of 99 samples has 9 beyond it and must not be reported")
	}
	if _, ok := percentile(make([]float64, 100), 0.90); !ok {
		t.Error("p90 of 100 samples has 10 beyond it and must be reported")
	}
}

func TestOperationIsCalibratedByItsNeighboursInTime(t *testing.T) {
	t0 := time.Now()
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	w := &window{at: []time.Time{at(0), at(10), at(20)}, kernelMs: []float64{10, 20, 40}}
	for _, c := range []struct {
		name       string
		start, end int
		want       float64
	}{
		{"between the first two samples", 1, 9, 15},
		{"between the last two samples", 11, 19, 30},
		{"spanning a sample", 5, 15, 25},
		{"after the last sample", 21, 25, 40},
		{"before the first sample", -5, -1, 10},
	} {
		if got := w.around(at(c.start), at(c.end)); got != c.want {
			t.Errorf("operation %s: kernel time %v, want %v", c.name, got, c.want)
		}
	}
	if got := (&window{}).around(at(0), at(1)); got != 0 {
		t.Errorf("a window without samples gives %v, want 0", got)
	}

	// The reference time is the median of the per-operation ratios, not
	// the ratio of the medians: 100/10, 300/20 and 90/15 have median 10.
	var c calibrated
	c.add(100, 10)
	c.add(300, 20)
	c.add(90, 15)
	if got, want := c.ref(), 10*refCalibMs; got != want {
		t.Errorf("reference time %v, want %v", got, want)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Start: msec(0), End: msec(100), Parent: -1},
		{Name: "a", Start: msec(10), End: msec(40), Parent: 0},
		{Name: "b", Start: msec(30), End: msec(60), Parent: 0},  // overlaps a by 10
		{Name: "c", Start: msec(35), End: msec(38), Parent: 0},  // inside a and b
		{Name: "d", Start: msec(90), End: msec(120), Parent: 0}, // runs past the parent
		{Name: "a1", Start: msec(10), End: msec(25), Parent: 1},
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100): 60 of the root's 100.
	if want := msec(40); self[0] != want {
		t.Errorf("root self time %v, want %v", self[0], want)
	}
	if want := msec(15); self[1] != want {
		t.Errorf("a self time %v, want %v", self[1], want)
	}
	if want := msec(30); self[2] != want {
		t.Errorf("childless b self time %v, want its duration %v", self[2], want)
	}
}

func TestTracerPausedAndNilRecordNothing(t *testing.T) {
	var none *tracer
	none.time("x", 0, 0, func() {})
	none.end(none.start("x", 0, 0))

	tr := newTracer()
	tr.pause(true)
	tr.time("hidden", 0, 0, func() {})
	tr.pause(false)
	root := tr.start("seen", 0, 3)
	tr.time("child", root, 3, func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	if got := len(tr.spans); got != 2 {
		t.Fatalf("recorded %d spans, want 2", got)
	}
	if tr.spans[1].Parent != 0 || tr.spans[1].Op != 3 {
		t.Errorf("child span %+v does not name its parent and operation", tr.spans[1])
	}
	if sums := tr.opSums("child", false); sums[3] < 1 {
		t.Errorf("child took %v ms, want at least the 1 ms it slept", sums[3])
	}
}

// wireBytes renders a seed's churn schedule exactly as the live
// workload would send it.
func wireBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	c, err := generate(seed, testASes, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := churnSchedule(c, seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	slot := map[uint32]int{}
	for i, vp := range c.sim.VPs {
		slot[vp] = i
	}
	wire, err := encodeEpochs(sched, slot, make([]int64, len(c.sim.VPs)))
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, we := range wire {
		if we.events == 0 {
			t.Fatal("a churn epoch carries no events")
		}
		for _, b := range we.perVP {
			all = append(all, b...)
		}
	}
	return all
}

func drawMix(seed int64, n int) string {
	m := &mix{rng: newLCG(seed, 0), asns: []uint32{1, 2, 3, 5, 8, 13, 21}, epochs: func() int { return 16 }}
	var b strings.Builder
	for i := 0; i < n; i++ {
		r := m.next()
		b.WriteString(r.path)
		if r.conditional {
			b.WriteString(" if-none-match")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	if a, b := wireBytes(t, 42), wireBytes(t, 42); !bytes.Equal(a, b) {
		t.Error("two schedules from seed 42 differ on the wire")
	}
	if a, b := wireBytes(t, 42), wireBytes(t, 7); bytes.Equal(a, b) {
		t.Error("seeds 42 and 7 give the same schedule")
	}
	if a, b := drawMix(42, 2000), drawMix(42, 2000); a != b {
		t.Error("two request mixes from seed 42 differ")
	}
	if a, b := drawMix(42, 2000), drawMix(7, 2000); a == b {
		t.Error("seeds 42 and 7 give the same request mix")
	}
}

func TestMixDrawsEveryKindAndValidDiffs(t *testing.T) {
	m := &mix{rng: newLCG(42, 0), asns: []uint32{64496, 64497}, epochs: func() int { return 2 }}
	var seen [numKinds]int
	for i := 0; i < 5000; i++ {
		r := m.next()
		seen[r.kind]++
		if r.kind == kindDiff && r.path != "/api/v1/diff?from=0&to=1" {
			t.Fatalf("diff over two epochs drew %s", r.path)
		}
		if r.kind == kindHealth && r.conditional {
			t.Fatal("health requests are never conditional")
		}
	}
	for k, n := range seen {
		if n == 0 {
			t.Errorf("5000 draws never produced a %s request", kindNames[k])
		}
	}
	sum := 0
	for _, w := range mixWeights {
		sum += w
	}
	if sum != 100 {
		t.Errorf("mix weights sum to %d, want 100", sum)
	}
}

// TestOpenLoopTimesFromDueTime stalls the server on the first request:
// the requests that came due during the stall must be charged the time
// they waited, not just their own round trip.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		once.Do(func() { time.Sleep(stall) })
		w.Header().Set("ETag", `"t"`)
	}))
	defer srv.Close()

	stop := make(chan struct{})
	done := make(chan readLog, 1)
	m := &mix{rng: newLCG(1, 0), asns: []uint32{1}, epochs: func() int { return 2 }}
	go func() { done <- readLoop(newAPIClient(srv.URL), m, time.Now(), stop) }()
	time.Sleep(2 * stall)
	close(stop)
	log := <-done

	if log.failed != 0 {
		t.Fatalf("%d reads failed: %s", log.failed, log.firstFailure)
	}
	if len(log.latencies) < 10 {
		t.Fatalf("only %d reads completed", len(log.latencies))
	}
	// The second request was due 5 ms in and could not be sent until the
	// stall ended: from its due time it took nearly the whole stall.
	if got := log.latencies[1]; got < ms(stall)/2 {
		t.Errorf("second request's latency %v ms was timed from its send time, not its due time", got)
	}
	if got := log.lag[1]; got < ms(stall)/2 {
		t.Errorf("second request's generator lag %v ms does not show the stall", got)
	}
	// Once the backlog drains, latencies return to a round trip.
	if last := log.latencies[len(log.latencies)-1]; last > ms(stall)/2 {
		t.Errorf("last request still took %v ms", last)
	}
}

func TestSpeakerMessagesRoundTrip(t *testing.T) {
	c, err := generate(42, testASes, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := churnSchedule(c, 42, 6)
	if err != nil {
		t.Fatal(err)
	}
	nextHop := netip.AddrFrom4([4]byte{192, 0, 2, 1})
	announces, withdraws := 0, 0
	for _, evs := range sched.Epochs {
		for _, ev := range evs {
			msg, err := encodeEvent(ev, nextHop)
			if err != nil {
				t.Fatal(err)
			}
			upd, err := bgp.ParseUpdate(msg, true)
			if err != nil {
				t.Fatalf("event %+v does not parse back: %v", ev, err)
			}
			if ev.Withdraw {
				withdraws++
				if len(upd.NLRI) != 0 || !reflect.DeepEqual(upd.Withdrawn, []netip.Prefix{ev.Key.Prefix}) {
					t.Fatalf("withdrawal of %v parsed back as %+v", ev.Key.Prefix, upd)
				}
				continue
			}
			announces++
			if len(upd.Withdrawn) != 0 || !reflect.DeepEqual(upd.NLRI, []netip.Prefix{ev.Key.Prefix}) {
				t.Fatalf("announcement of %v parsed back as %+v", ev.Key.Prefix, upd)
			}
			if got := upd.Attrs.Path().Flatten(); !reflect.DeepEqual(got, ev.ASNs) {
				t.Fatalf("AS path %v parsed back as %v", ev.ASNs, got)
			}
			if ev.ASNs[0] != ev.Key.VP {
				t.Fatalf("event from AS%d leads its path with AS%d", ev.Key.VP, ev.ASNs[0])
			}
		}
	}
	if announces == 0 || withdraws == 0 {
		t.Fatalf("schedule had %d announcements and %d withdrawals; both kinds must be covered", announces, withdraws)
	}
	for _, vp := range c.sim.VPs {
		open, err := openMessage(vp)
		if err != nil {
			t.Fatal(err)
		}
		if parsed, err := bgp.ParseOpen(open); err != nil || parsed.ASN != vp || !parsed.FourByteAS {
			t.Fatalf("OPEN of AS%d parsed back as %+v, %v", vp, parsed, err)
		}
	}
}

// recordSink collects what a collector delivers.
type recordSink struct {
	mu     sync.Mutex
	events []streamtest.Event
}

func (s *recordSink) Announce(coll string, vp uint32, prefix netip.Prefix, asns []uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, streamtest.Event{
		Key:  streamtest.RouteKey{Collector: coll, VP: vp, Prefix: prefix},
		ASNs: append([]uint32(nil), asns...),
	})
}

func (s *recordSink) Withdraw(coll string, vp uint32, prefix netip.Prefix) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, streamtest.Event{Withdraw: true, Key: streamtest.RouteKey{Collector: coll, VP: vp, Prefix: prefix}})
}

// TestSpeakerSessionDeliversEveryEvent runs the speaker against a real
// collector: handshake, one VP's share of a schedule, CEASE — and the
// sink must have received exactly those events, in order.
func TestSpeakerSessionDeliversEveryEvent(t *testing.T) {
	c, err := generate(42, testASes, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := churnSchedule(c, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordSink{}
	srv, err := collector.Listen("127.0.0.1:0", collector.Options{
		Routes: sink, Registry: obs.NewRegistry(), Collector: sched.Epochs[0][0].Key.Collector,
	})
	if err != nil {
		t.Fatal(err)
	}
	vp := c.sim.VPs[0]
	sp, err := dialSpeaker(srv.Addr().String(), vp)
	if err != nil {
		t.Fatal(err)
	}
	var want []streamtest.Event
	for _, evs := range sched.Epochs[1:] {
		var buf []byte
		for _, ev := range evs {
			if ev.Key.VP != vp {
				continue
			}
			msg, err := encodeEvent(ev, netip.AddrFrom4([4]byte{192, 0, 2, 1}))
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf, msg...)
			want = append(want, ev)
		}
		if err := sp.write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.keepalive(time.Now().Add(time.Minute)); err != nil {
		t.Fatalf("keepalive: %v", err)
	}
	if err := sp.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the schedule has no event from the first VP")
	}
	if !reflect.DeepEqual(sink.events, want) {
		t.Fatalf("collector delivered %d events, the speaker sent %d (or they differ)", len(sink.events), len(want))
	}
}

func TestSpecMatchesTables(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.matchTables(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestFailedCheckMakesThePassIncorrect is the report side of "a wrong
// output makes the command exit non-zero": main exits 1 exactly when a
// pass's checker counted a failure, and the driver's line says so.
func TestFailedCheckMakesThePassIncorrect(t *testing.T) {
	r := &result{cfg: config{workload: "batch_10k"}, checks: &checker{}, metrics: map[string]float64{}}
	for _, m := range endToEnd {
		r.set(m.name, 1)
	}
	r.checks.ok(true, "fine")
	r.checks.ok(false, "ETag %s is not %s", `"a"`, `"b"`)
	r.checks.add(10, 2, "two of ten reads failed")

	var out bytes.Buffer
	if err := r.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(line) != 4 {
		t.Errorf("driver line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var got passLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Correct || got.Attempted != 12 || got.Failed != 3 {
		t.Errorf("driver line reports correct=%v attempted=%d failed=%d, want false 12 3", got.Correct, got.Attempted, got.Failed)
	}
	if len(got.Metrics) != len(endToEnd) {
		t.Errorf("driver line carries %d metrics, want the %d end-to-end ones", len(got.Metrics), len(endToEnd))
	}
	if !strings.Contains(out.String(), `# FAILED ETag "a" is not "b"`) {
		t.Error("the listing does not name the failed check")
	}
}
