package collector

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/chaos"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/trace"
)

// TestReplayTraceEndToEnd is the tracing acceptance test: replaying a
// simulated corpus through fault-injecting dials under a live tracer
// must yield a capture that (a) exports to Chrome trace_event JSON
// passing the exporter's own schema check, (b) contains pool.task spans
// parented across goroutines to the replay.all span, and (c) records at
// least one chaos.fault event on the replay.vp span of an affected VP.
// Faults are injected by wrapping the dialer, as bgpsim -chaos-seed
// does: the dial path surfaces typed *chaos.FaultError values for the
// instrumentation to classify.
func TestReplayTraceEndToEnd(t *testing.T) {
	res := simResult(t, 73, 200, 5)
	reg := obs.NewRegistry()
	srv, err := Listen("127.0.0.1:0", Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inj := chaos.New(chaos.Options{
		Seed:           20130401,
		ResetProb:      0.08,
		ShortWriteProb: 0.08,
		CorruptProb:    0.08,
		FaultBudget:    24,
		Registry:       reg,
	})

	tracer := trace.New()
	capt := tracer.NewCapture(0)
	ctx, root := tracer.StartSpan(context.Background(), "bgpsim.run")
	err = ReplayAllCtx(ctx, srv.Addr().String(), res, ReplayOptions{
		Timeout:    20 * time.Second,
		MaxRetries: 64,
		RetryBase:  time.Millisecond,
		RetryMax:   20 * time.Millisecond,
		Workers:    4,
		Registry:   reg,
		Dial:       inj.Dialer(nil),
	})
	if err != nil {
		t.Fatalf("chaos-dialed ReplayAllCtx never settled: %v", err)
	}
	root.End()
	capt.Stop()
	if inj.FaultsInjected() == 0 {
		t.Fatal("chaos dialer injected no faults; the test proved nothing")
	}

	spans := capt.Spans()
	if dropped := capt.Dropped(); dropped != 0 {
		t.Fatalf("capture dropped %d spans", dropped)
	}

	// (a) The capture must export and self-validate as Chrome JSON.
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckChrome(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails schema check: %v", err)
	}

	byName := make(map[string][]*trace.Span)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	alls := byName["replay.all"]
	if len(alls) != 1 {
		t.Fatalf("want exactly one replay.all span, got %d", len(alls))
	}
	all := alls[0]
	if len(byName["replay.vp"]) != len(res.VPs) {
		t.Errorf("want %d replay.vp spans (one per VP), got %d",
			len(res.VPs), len(byName["replay.vp"]))
	}

	// (b) Worker-pool task spans are children of replay.all started on
	// other goroutines — the cross-goroutine parenting the Chrome
	// exporter renders as flow arrows.
	crossGoroutine := 0
	for _, s := range byName["pool.task"] {
		if s.Parent == all.ID && s.Trace == all.Trace && s.Goroutine != all.Goroutine {
			crossGoroutine++
		}
	}
	if crossGoroutine == 0 {
		t.Error("no pool.task span parented across goroutines to replay.all")
	}

	// (c) At least one VP span carries a classified chaos.fault event.
	faultEvents := 0
	for _, s := range byName["replay.vp"] {
		for _, ev := range s.Events {
			if ev.Name == "chaos.fault" {
				faultEvents++
				kind := ""
				for _, a := range ev.Attrs {
					if a.Key == "kind" {
						kind = a.Str
					}
				}
				if kind == "" {
					t.Errorf("chaos.fault event without a kind attribute: %+v", ev)
				}
			}
		}
	}
	if faultEvents == 0 {
		t.Errorf("no chaos.fault event on any replay.vp span (%d faults injected)",
			inj.FaultsInjected())
	}

	// The flight recorder saw the same run: a post-hoc dump is not empty.
	if len(tracer.Flight()) == 0 {
		t.Error("flight recorder empty after a traced run")
	}
	t.Logf("trace e2e: %d spans, %d cross-goroutine pool tasks, %d chaos.fault events, %d faults injected",
		len(spans), crossGoroutine, faultEvents, inj.FaultsInjected())
}
