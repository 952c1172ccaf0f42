package trace

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerAndNilSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.StartSpan(context.Background(), "x.y")
	if s != nil {
		t.Fatalf("nil tracer returned non-nil span")
	}
	if FromContext(ctx) != nil {
		t.Fatalf("nil tracer polluted context")
	}
	// Every span method must be callable on nil.
	s.SetAttr("k", "v")
	s.SetAttrInt("k", 1)
	s.AddEvent("e")
	s.End()
	if got := tr.Flight(); got != nil {
		t.Fatalf("nil tracer Flight = %v, want nil", got)
	}
	// Package-level StartSpan on a bare context is equally silent.
	ctx2, s2 := StartSpan(context.Background(), "a.b")
	if s2 != nil || FromContext(ctx2) != nil {
		t.Fatalf("package StartSpan created a span without a parent")
	}
}

func TestSpanParenting(t *testing.T) {
	tr := New()
	ctx, root := tr.StartSpan(context.Background(), "root.run")
	ctx2, child := StartSpan(ctx, "child.step")
	_, grand := StartSpan(ctx2, "grand.step")
	grand.End()
	child.End()
	root.End()

	if child.Parent != root.ID {
		t.Errorf("child.Parent = %d, want %d", child.Parent, root.ID)
	}
	if grand.Parent != child.ID {
		t.Errorf("grand.Parent = %d, want %d", grand.Parent, child.ID)
	}
	if child.Trace != root.Trace || grand.Trace != root.Trace {
		t.Errorf("trace IDs differ across one tree")
	}
	if !root.Trace.IsValid() {
		t.Errorf("root trace ID is zero")
	}
	spans := tr.Flight()
	if len(spans) != 3 {
		t.Fatalf("Flight holds %d spans, want 3", len(spans))
	}
	// Ordered by start: root, child, grand.
	if spans[0].Name != "root.run" || spans[2].Name != "grand.step" {
		t.Errorf("Flight order = %s,%s,%s", spans[0].Name, spans[1].Name, spans[2].Name)
	}
}

func TestAttrsEventsAndDoubleEnd(t *testing.T) {
	tr := New()
	_, s := tr.StartSpan(context.Background(), "a.b")
	s.SetAttr("engine", "recursive")
	s.SetAttrInt("links", 42)
	s.AddEvent("chaos.fault", String("kind", "reset"), Int("op", 3))
	s.End()
	firstDur := s.Dur
	// Post-End mutation and re-End must not change the published span.
	s.SetAttr("late", "x")
	s.AddEvent("late")
	time.Sleep(time.Millisecond)
	s.End()
	if s.Dur != firstDur {
		t.Errorf("second End changed Dur")
	}
	if len(s.Attrs) != 2 || len(s.Events) != 1 {
		t.Errorf("post-End mutation leaked: %d attrs, %d events", len(s.Attrs), len(s.Events))
	}
	if s.Events[0].Attrs[0].Str != "reset" || s.Events[0].Attrs[1].Int != 3 {
		t.Errorf("event attrs = %+v", s.Events[0].Attrs)
	}
	if len(tr.Flight()) != 1 {
		t.Errorf("double End published twice")
	}
}

func TestFlightRingEvictsOldest(t *testing.T) {
	r := NewRing[int](4)
	for i := 0; i < 10; i++ {
		r.Add(&i)
	}
	got := r.Snapshot(func(a, b *int) bool { return *a < *b })
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	for j, v := range got {
		if *v != 6+j {
			t.Errorf("ring slot %d holds %d, want %d: an old element survived eviction", j, *v, 6+j)
		}
	}
}

func TestCaptureWindowAndStop(t *testing.T) {
	tr := New()
	_, before := tr.StartSpan(context.Background(), "before.capture")
	before.End()
	c := tr.NewCapture(2)
	for i := 0; i < 3; i++ {
		_, s := tr.StartSpan(context.Background(), "during.capture")
		s.End()
	}
	c.Stop()
	_, after := tr.StartSpan(context.Background(), "after.capture")
	after.End()

	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("capture holds %d, want 2 (limit)", len(spans))
	}
	for _, s := range spans {
		if s.Name != "during.capture" {
			t.Errorf("captured %q", s.Name)
		}
	}
	if c.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", c.Dropped())
	}
}

func TestCrossGoroutineParenting(t *testing.T) {
	tr := New()
	ctx, root := tr.StartSpan(context.Background(), "submit.side")
	var wg sync.WaitGroup
	children := make([]*Span, 4)
	for i := range children {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, s := StartSpan(ctx, "pool.task")
			s.SetAttrInt("shard", int64(i))
			s.End()
			children[i] = s
		}(i)
	}
	wg.Wait()
	root.End()
	for i, c := range children {
		if c.Parent != root.ID {
			t.Errorf("child %d parent = %d, want %d", i, c.Parent, root.ID)
		}
		if c.Goroutine == root.Goroutine {
			t.Errorf("child %d shares root goroutine id — goid broken", i)
		}
	}
}

func TestRemoteParentViaTraceparent(t *testing.T) {
	tr := New()
	_, up := tr.StartSpan(context.Background(), "client.side")
	header := Traceparent(up)
	up.End()

	id, spanID, ok := ParseTraceparent(header)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) failed", header)
	}
	ctx := ContextWithRemote(context.Background(), id, spanID)
	_, server := tr.StartSpan(ctx, "http.request")
	server.End()
	if server.Trace != up.Trace {
		t.Errorf("server joined trace %s, want %s", server.Trace, up.Trace)
	}
	if server.Parent != up.ID || !server.RemoteParent {
		t.Errorf("server parent = %d remote=%v, want %d/true", server.Parent, server.RemoteParent, up.ID)
	}
}

func TestParseTraceparentRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"00-short-0000000000000001-01",
		"00-00000000000000000000000000000000-0000000000000001-01", // zero trace
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01", // zero span
		"not-a-header",
		"00-0123456789abcdef0123456789abcdef-01",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",       // version ff is invalid
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", // version 00 ends at the flags
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz",       // non-hex flags
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",       // uppercase IDs
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted garbage", h)
		}
	}
	if _, _, ok := ParseTraceparent("cc-0123456789abcdef0123456789abcdef-0123456789abcdef-01"); !ok {
		t.Errorf("future version byte rejected; spec says parse as 00")
	}
}

// FuzzParseTraceparent: an accepted header names a nonzero trace and
// span, and the version-00 header Traceparent would write for that pair
// parses back to it.
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-future",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz",
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",
		"00-00000000000000000000000000000000-0000000000000001-01",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		id, span, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if !id.IsValid() || span == 0 {
			t.Fatalf("ParseTraceparent(%q) accepted a zero ID: %s %d", h, id, span)
		}
		again := fmt.Sprintf("00-%s-%016x-01", id, span)
		if id2, span2, ok := ParseTraceparent(again); !ok || id2 != id || span2 != span {
			t.Fatalf("%q -> %q parsed back as (%s, %d, %v)", h, again, id2, span2, ok)
		}
	})
}

func TestWriteTree(t *testing.T) {
	tr := New()
	ctx, root := tr.StartSpan(context.Background(), "run.root")
	root.SetAttrInt("ases", 200)
	_, child := StartSpan(ctx, "run.child")
	child.AddEvent("chaos.fault", String("kind", "reset"))
	child.End()
	root.End()
	var buf bytes.Buffer
	if err := WriteTree(&buf, tr.Flight()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"run.root", "ases=200", "  run.child", "! chaos.fault", "kind=reset"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteTree(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no spans") {
		t.Errorf("empty tree output = %q", buf.String())
	}
}

func TestConcurrentSpansRace(t *testing.T) {
	// Exercised under -race: many goroutines start/end spans, attach
	// events, and snapshot the ring and captures concurrently — enough
	// spans that the flight ring wraps.
	tr := New()
	ctx, root := tr.StartSpan(context.Background(), "race.root")
	c := tr.NewCapture(1 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < flightSize/4; i++ {
				_, s := StartSpan(ctx, "race.child")
				s.SetAttrInt("g", int64(g))
				s.AddEvent("tick")
				s.End()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			spans := tr.Flight()
			for _, s := range spans {
				_ = s.Name
				_ = s.Dur
			}
		}
	}()
	wg.Wait()
	<-done
	c.Stop()
	root.End()
	if got := len(c.Spans()); got != 1<<10 {
		t.Fatalf("capture got %d spans", got)
	}
}
