package oplog

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/trace"
)

// TestNilJournal: every method on a nil journal is a safe no-op, so
// packages can take an optional journal without guarding call sites.
func TestNilJournal(t *testing.T) {
	var j *Journal
	j.Emit(context.Background(), Info, "a.b")
	j.Debug(nil, "a.b")
	j.Info(nil, "a.b", Int("n", 1))
	j.Warn(nil, "a.b")
	j.Error(nil, "a.b")
	if got := j.Recent(); got != nil {
		t.Fatalf("nil journal Recent() = %v, want nil", got)
	}
}

// TestEmitAndRecent covers sequence numbering, ordering, and the
// attribute payload surviving the ring round trip.
func TestEmitAndRecent(t *testing.T) {
	j := New(Options{RingSize: 8})
	j.Info(nil, "a.first", String("k", "v"))
	j.Warn(nil, "a.second", Int("n", 42))
	got := j.Recent()
	if len(got) != 2 {
		t.Fatalf("Recent() = %d events, want 2", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Errorf("seqs = %d,%d, want 1,2", got[0].Seq, got[1].Seq)
	}
	if got[0].Name != "a.first" || got[0].Sev != Info {
		t.Errorf("first = %+v", got[0])
	}
	if len(got[1].Attrs) != 1 || got[1].Attrs[0].Int != 42 || !got[1].Attrs[0].IsInt {
		t.Errorf("second attrs = %+v", got[1].Attrs)
	}
	if got[0].Time.IsZero() {
		t.Error("event time not stamped")
	}
}

// TestRingEviction: the ring keeps only the newest RingSize events and
// Recent stays in sequence order across wraparound.
func TestRingEviction(t *testing.T) {
	j := New(Options{RingSize: 4})
	for i := 0; i < 10; i++ {
		j.Info(nil, "a.b")
	}
	got := j.Recent()
	if len(got) != 4 {
		t.Fatalf("Recent() = %d events, want 4", len(got))
	}
	for i, e := range got {
		if want := uint64(7 + i); e.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
}

// TestTraceCorrelation: an active span in the context stamps its trace
// ID on the event; no span, no trace field.
func TestTraceCorrelation(t *testing.T) {
	tr := trace.New()
	ctx, span := tr.StartSpan(context.Background(), "test.op")
	j := New(Options{})
	j.Info(ctx, "a.correlated")
	j.Info(context.Background(), "a.bare")
	span.End()

	got := j.Recent()
	if got[0].Trace != span.Trace.String() {
		t.Errorf("correlated trace = %q, want %q", got[0].Trace, span.Trace.String())
	}
	if got[1].Trace != "" {
		t.Errorf("bare event has trace %q", got[1].Trace)
	}
}

// TestNDJSONSink: every sunk line is valid JSON with the documented
// fields, including escaping of hostile attribute values.
func TestNDJSONSink(t *testing.T) {
	var sink bytes.Buffer
	j := New(Options{Sink: &sink})
	j.Info(nil, "a.b", String("msg", "quote\" backslash\\ newline\n tab\t ctrl\x01"), Int("n", -7))

	line := strings.TrimSuffix(sink.String(), "\n")
	if strings.Contains(line, "\n") {
		t.Fatalf("sink line contains raw newline: %q", line)
	}
	var decoded struct {
		Seq   uint64         `json:"seq"`
		Time  string         `json:"time"`
		Sev   string         `json:"sev"`
		Name  string         `json:"name"`
		Attrs map[string]any `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(line), &decoded); err != nil {
		t.Fatalf("sink line not valid JSON: %v\n%s", err, line)
	}
	if decoded.Seq != 1 || decoded.Sev != "info" || decoded.Name != "a.b" {
		t.Errorf("decoded = %+v", decoded)
	}
	if decoded.Attrs["msg"] != "quote\" backslash\\ newline\n tab\t ctrl\x01" {
		t.Errorf("msg round trip = %q", decoded.Attrs["msg"])
	}
	if decoded.Attrs["n"] != float64(-7) {
		t.Errorf("n round trip = %v", decoded.Attrs["n"])
	}
	if decoded.Time == "" {
		t.Error("time missing")
	}
}

// TestJSONAttrNests: a JSON attribute is marshalled once, nested as an
// object on the sink line and printed as is by the text tee; a value
// that does not marshal is recorded as the error's text.
func TestJSONAttrNests(t *testing.T) {
	var sink bytes.Buffer
	var lines []string
	j := New(Options{Sink: &sink, Logf: func(format string, args ...any) {
		lines = append(lines, args[0].(string))
	}})
	type report struct {
		Epoch int     `json:"epoch"`
		Total float64 `json:"totalMillis"`
	}
	j.Info(nil, "a.b", JSON("report", report{Epoch: 3, Total: 1.5}))

	var decoded struct {
		Attrs map[string]report `json:"attrs"`
	}
	if err := json.Unmarshal(sink.Bytes(), &decoded); err != nil {
		t.Fatalf("sink line does not nest the report: %v\n%s", err, sink.String())
	}
	if got := decoded.Attrs["report"]; got != (report{Epoch: 3, Total: 1.5}) {
		t.Errorf("nested report = %+v", got)
	}
	if want := `info a.b report={"epoch":3,"totalMillis":1.5}`; len(lines) != 1 || lines[0] != want {
		t.Errorf("tee = %q, want %q", lines, want)
	}
	if a := JSON("bad", math.NaN()); a.JSON || a.Str == "" {
		t.Errorf("unmarshalable value gave %+v, want its error as a string attribute", a)
	}
}

// TestLogfTee checks the human rendering shape.
func TestLogfTee(t *testing.T) {
	var lines []string
	j := New(Options{Logf: func(format string, args ...any) {
		lines = append(lines, strings.TrimSpace(strings.ReplaceAll(format, "%s", args[0].(string))))
	}})
	j.Warn(nil, "a.b", String("addr", "127.0.0.1:80"), Int("n", 3))
	if len(lines) != 1 || lines[0] != "warn a.b addr=127.0.0.1:80 n=3" {
		t.Errorf("tee = %q", lines)
	}
}

// TestEventsCounter: the optional registry gets per-severity counts.
func TestEventsCounter(t *testing.T) {
	reg := obs.NewRegistry()
	j := New(Options{Registry: reg})
	j.Info(nil, "a.b")
	j.Info(nil, "a.b")
	j.Error(nil, "a.c")
	expo := reg.Expose()
	if !strings.Contains(expo, `asrank_oplog_events_total{severity="info"} 2`) {
		t.Errorf("info count missing:\n%s", expo)
	}
	if !strings.Contains(expo, `asrank_oplog_events_total{severity="error"} 1`) {
		t.Errorf("error count missing:\n%s", expo)
	}
	if err := obs.Lint(expo); err != nil {
		t.Errorf("exposition lint: %v", err)
	}
}

// TestHandler covers the /debug/oplog query surface.
func TestHandler(t *testing.T) {
	j := New(Options{RingSize: 16})
	j.Debug(nil, "a.low")
	j.Info(nil, "a.mid")
	j.Error(nil, "a.high")
	h := Handler(j)

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}

	// Default: NDJSON, all events.
	rec := get("/debug/oplog")
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	if n := strings.Count(rec.Body.String(), "\n"); n != 3 {
		t.Errorf("lines = %d, want 3", n)
	}

	// Severity floor.
	rec = get("/debug/oplog?sev=info")
	if n := strings.Count(rec.Body.String(), "\n"); n != 2 {
		t.Errorf("sev=info lines = %d, want 2", n)
	}

	// Newest-n.
	rec = get("/debug/oplog?n=1")
	if body := rec.Body.String(); !strings.Contains(body, "a.high") || strings.Count(body, "\n") != 1 {
		t.Errorf("n=1 body = %q", body)
	}

	// JSON array mode parses and preserves order.
	rec = get("/debug/oplog?format=json")
	var events []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatalf("json mode: %v\n%s", err, rec.Body.String())
	}
	if len(events) != 3 || events[0].Name != "a.low" || events[2].Name != "a.high" {
		t.Errorf("json events = %+v", events)
	}

	// Bad params are 400s.
	if code := get("/debug/oplog?sev=loud").Code; code != 400 {
		t.Errorf("bad sev status = %d", code)
	}
	if code := get("/debug/oplog?n=x").Code; code != 400 {
		t.Errorf("bad n status = %d", code)
	}
}

// TestConcurrentEmit hammers the ring and a shared sink from many
// goroutines; run under -race this is the journal's thread-safety
// proof (the journal serializes sink writes itself — a plain
// bytes.Buffer must survive), and every sunk line must still be
// intact JSON.
func TestConcurrentEmit(t *testing.T) {
	var sink bytes.Buffer
	j := New(Options{RingSize: 64, Sink: &sink})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j.Info(nil, "a.b", Int("i", int64(i)))
				j.Recent()
			}
		}()
	}
	wg.Wait()
	if got := len(j.Recent()); got != 64 {
		t.Errorf("ring holds %d, want 64", got)
	}
	for _, line := range strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("corrupt sink line: %q", line)
		}
	}
}
