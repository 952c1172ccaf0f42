package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// buildSample produces a small realistic trace: a root, a sequential
// child with an event, and two cross-goroutine children (flow arrows).
func buildSample(t *testing.T) []*Span {
	t.Helper()
	tr := New()
	ctx, root := tr.StartSpan(context.Background(), "sample.run")
	root.SetAttrInt("ases", 200)

	ctx2, step := StartSpan(ctx, "sample.step")
	step.AddEvent("chaos.fault", String("kind", "reset"), Int("vp", 65000))
	_, inner := StartSpan(ctx2, "sample.inner")
	inner.End()
	step.End()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, s := StartSpan(ctx, "pool.task")
			s.SetAttrInt("shard", int64(i))
			s.End()
		}(i)
	}
	wg.Wait()
	root.End()
	return tr.Flight()
}

func TestWriteChromePassesSchemaCheck(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, buildSample(t)); err != nil {
		t.Fatal(err)
	}
	if err := CheckChrome(buf.Bytes()); err != nil {
		t.Fatalf("self-emitted trace fails schema check: %v\n%s", err, buf.String())
	}
}

func TestWriteChromeStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, buildSample(t)); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Tid  int64          `json:"tid"`
			ID   string         `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	var complete, flows, instants int
	tidsByFlow := make(map[string][]int64)
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Dur < 1 {
				t.Errorf("complete event %s has dur %d", ev.Name, ev.Dur)
			}
			if ev.Name == "sample.run" {
				if got := ev.Args["ases"]; got != float64(200) {
					t.Errorf("root args[ases] = %v", got)
				}
			}
		case "i":
			instants++
			if ev.Name == "chaos.fault" {
				if ev.Args["kind"] != "reset" {
					t.Errorf("fault event args = %v", ev.Args)
				}
			}
		case "s", "f":
			flows++
			tidsByFlow[ev.ID] = append(tidsByFlow[ev.ID], ev.Tid)
		}
	}
	if complete != 5 {
		t.Errorf("complete events = %d, want 5", complete)
	}
	if instants != 1 {
		t.Errorf("instant events = %d, want 1", instants)
	}
	// Two pool.task spans ran on other goroutines: two flow pairs, each
	// bridging two distinct tids.
	if flows != 4 {
		t.Errorf("flow events = %d, want 4", flows)
	}
	for id, tids := range tidsByFlow {
		if len(tids) != 2 || tids[0] == tids[1] {
			t.Errorf("flow %s links tids %v, want a cross-goroutine pair", id, tids)
		}
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := CheckChrome(buf.Bytes()); err != nil {
		t.Fatalf("empty trace fails schema check: %v", err)
	}
}

func TestCheckChromeRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":       `{"traceEvents":`,
		"no array":       `{"other": []}`,
		"missing ph":     `{"traceEvents":[{"name":"x","pid":1,"tid":1}]}`,
		"missing name":   `{"traceEvents":[{"ph":"X","pid":1,"tid":1,"ts":0,"dur":1}]}`,
		"missing pid":    `{"traceEvents":[{"name":"x","ph":"X","tid":1,"ts":0,"dur":1}]}`,
		"unknown ph":     `{"traceEvents":[{"name":"x","ph":"Z","pid":1,"tid":1}]}`,
		"X without dur":  `{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":1,"ts":0}]}`,
		"negative ts":    `{"traceEvents":[{"name":"x","ph":"i","pid":1,"tid":1,"ts":-5}]}`,
		"unmatched flow": `{"traceEvents":[{"name":"x","ph":"s","pid":1,"tid":1,"ts":0,"id":"f1"}]}`,
		"string ts":      `{"traceEvents":[{"name":"x","ph":"i","pid":1,"tid":1,"ts":"0"}]}`,
	}
	for label, data := range cases {
		if err := CheckChrome([]byte(data)); err == nil {
			t.Errorf("%s: CheckChrome accepted %s", label, data)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New()
	_, s := tr.StartSpan(context.Background(), "rt.span")
	defer s.End()
	h := Traceparent(s)
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent %q has wrong framing", h)
	}
	id, spanID, ok := ParseTraceparent(h)
	if !ok || id != s.Trace || spanID != s.ID {
		t.Fatalf("round trip %q -> (%s,%d,%v), want (%s,%d)", h, id, spanID, ok, s.Trace, s.ID)
	}
	if Traceparent(nil) != "" {
		t.Errorf("Traceparent(nil) = %q, want empty", Traceparent(nil))
	}
}
