package streamtest

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/asrank-go/asrank/internal/apiserver"
	"github.com/asrank-go/asrank/internal/oplog"
	"github.com/asrank-go/asrank/internal/stream"
)

// journaledReports decodes the report of every stream.commit event in
// the journal, oldest first, failing the test on an event that carries
// anything but the one JSON attribute report.
func journaledReports(t *testing.T, j *oplog.Journal) []stream.CommitReport {
	t.Helper()
	var out []stream.CommitReport
	for _, ev := range j.Recent() {
		if ev.Name != "stream.commit" {
			continue
		}
		if len(ev.Attrs) != 1 || ev.Attrs[0].Key != "report" || !ev.Attrs[0].JSON {
			t.Fatalf("stream.commit event %d carries %+v, want one JSON attribute, report", ev.Seq, ev.Attrs)
		}
		var rep stream.CommitReport
		if err := json.Unmarshal([]byte(ev.Attrs[0].Str), &rep); err != nil {
			t.Fatalf("stream.commit event %d: %v", ev.Seq, err)
		}
		out = append(out, rep)
	}
	return out
}

// TestCommitReportsMatchStats is acceptance proof (a) for the health
// plane: a differential run's journaled commit reports, and the
// /debug/epochs timeline served from them, must agree, epoch by epoch
// and in aggregate, with stream.Stats — the provenance layer reports
// what the engine actually did.
func TestCommitReportsMatchStats(t *testing.T) {
	journal := oplog.New(oplog.Options{RingSize: 256})
	opts := stream.Options{Journal: journal}
	eng := stream.New(opts)
	sched := NewSchedule(7, baseCorpus(), 6, 20)
	etags, _, err := RunScheduleOn(context.Background(), eng, sched)
	if err != nil {
		t.Fatal(err)
	}
	// One extra commit with no events: nothing to re-credit, and the
	// snapshot must be the one already served.
	eventless, returned := eng.CommitEpoch(context.Background())

	st := eng.Stats()
	reports := journaledReports(t, journal)
	if len(reports) != st.Epochs {
		t.Fatalf("reports = %d, stats.Epochs = %d", len(reports), st.Epochs)
	}

	var rebuilds int
	for i, rep := range reports {
		if rep.Epoch != i+1 {
			t.Errorf("report %d has epoch %d", i, rep.Epoch)
		}
		switch rep.Decision {
		case stream.DecisionRebuild:
			rebuilds++
			if rep.Reason != stream.ReasonInitial && rep.Reason != stream.ReasonCliqueChurn {
				t.Errorf("epoch %d: rebuild with reason %q", rep.Epoch, rep.Reason)
			}
		case stream.DecisionIncremental:
			if rep.Reason != stream.ReasonSteady {
				t.Errorf("epoch %d: incremental with reason %q", rep.Epoch, rep.Reason)
			}
		default:
			t.Errorf("epoch %d: decision %q", rep.Epoch, rep.Decision)
		}
		if rep.Slab != stream.SlabFull {
			t.Errorf("epoch %d: slab %q", rep.Epoch, rep.Slab)
		}
		if rep.TotalMillis <= 0 {
			t.Errorf("epoch %d: total %vms", rep.Epoch, rep.TotalMillis)
		}
		sum := rep.Phases.RankClique + rep.Phases.Infer + rep.Phases.Credit +
			rep.Phases.Slab + rep.Phases.Compose
		if sum > rep.TotalMillis {
			t.Errorf("epoch %d: phases %vms exceed total %vms", rep.Epoch, sum, rep.TotalMillis)
		}
	}
	if rebuilds != st.FullRebuilds {
		t.Errorf("rebuild decisions = %d, stats.FullRebuilds = %d", rebuilds, st.FullRebuilds)
	}

	// The last report is the eventless commit: 0 events, incremental,
	// and the same serving ETag as the epoch before it.
	last := reports[len(reports)-1]
	if last != returned {
		t.Errorf("journaled report %+v, CommitEpoch returned %+v", last, returned)
	}
	if last.Events != 0 || last.Slab != stream.SlabFull || last.Decision != stream.DecisionIncremental {
		t.Errorf("eventless commit report = %+v", last)
	}
	if got, want := apiserver.BuildSnapshot(eventless).ETag(), etags[len(etags)-1]; got != want {
		t.Errorf("eventless commit serves ETag %s, previous epoch served %s", got, want)
	}
	if last.Entries != st.Entries || last.RIBRoutes != st.RIBRoutes ||
		last.Sequences != st.Sequences || last.LinkIndex != st.LinkIndex {
		t.Errorf("last report sizes %+v != stats %+v", last, st)
	}
	// What the engine holds nests: routes share rows, rows share
	// sequences, and a kept sequence is in the link index once per link.
	for _, rep := range reports {
		if !(0 < rep.Sequences && rep.Sequences < rep.Entries && rep.Entries <= rep.RIBRoutes && rep.Sequences <= rep.LinkIndex) {
			t.Errorf("epoch %d: %d routes, %d rows, %d sequences, %d link-index memberships do not nest",
				rep.Epoch, rep.RIBRoutes, rep.Entries, rep.Sequences, rep.LinkIndex)
		}
	}
	// Epoch 1 announced the whole base corpus: events and a watermark.
	if reports[0].Events == 0 || reports[0].WatermarkMillis <= 0 {
		t.Errorf("bootstrap report lacks event accounting: %+v", reports[0])
	}
	if reports[0].Decision != stream.DecisionRebuild || reports[0].Reason != stream.ReasonInitial {
		t.Errorf("bootstrap decision = %s/%s", reports[0].Decision, reports[0].Reason)
	}

	// /debug/epochs serves the same timeline.
	rec := httptest.NewRecorder()
	stream.EpochsHandler(journal).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/epochs", nil))
	var payload struct {
		Reports []stream.CommitReport `json:"reports"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("/debug/epochs: %v", err)
	}
	if len(payload.Reports) != len(reports) {
		t.Fatalf("/debug/epochs serves %d reports, the journal has %d", len(payload.Reports), len(reports))
	}
	for i := range reports {
		if payload.Reports[i] != reports[i] {
			t.Errorf("served report %d diverges: %+v vs %+v", i, payload.Reports[i], reports[i])
		}
	}
}

// TestStatsCompleteness is the reflection gate on stream.Stats: every
// exported field must be exercised (nonzero at some point) by the
// differential harness scenario below. A new Stats field added without
// extending the harness fails here by construction, so engine counters
// cannot ship untested.
func TestStatsCompleteness(t *testing.T) {
	opts := stream.Options{}
	eng := stream.New(opts)
	sched := NewSchedule(11, baseCorpus(), 6, 20)
	if _, _, err := RunScheduleOn(context.Background(), eng, sched); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	sv := reflect.ValueOf(st)
	typ := sv.Type()
	var untouched []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() != reflect.Int {
			t.Errorf("Stats.%s is %s; the completeness gate only understands int counters — extend it",
				f.Name, f.Type)
			continue
		}
		if sv.Field(i).Int() == 0 {
			untouched = append(untouched, f.Name)
		}
	}
	if len(untouched) > 0 {
		t.Errorf("Stats fields never exercised by the differential harness: %v\n"+
			"extend the schedule (or this scenario) so every counter is proven to move", untouched)
	}
}
