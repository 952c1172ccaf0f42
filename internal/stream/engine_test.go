package stream

import (
	"context"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/oplog"
	"github.com/asrank-go/asrank/internal/trace"
)

var (
	pfxA = netip.MustParsePrefix("192.0.2.0/24")
	pfxB = netip.MustParsePrefix("198.51.100.0/24")
)

// tables is the engine state the event-folding tests assert on: routes,
// rows, live sequences and kept rows.
type tables struct {
	rib, entries, seqs, paths int
}

func tablesOf(e *Engine) tables {
	e.mu.Lock()
	defer e.mu.Unlock()
	return tables{rib: len(e.rib), entries: len(e.rows), seqs: e.seqs.Len(), paths: e.keptRows}
}

// soleEntryRefs returns the route count of the engine's only row.
func soleEntryRefs(t *testing.T, e *Engine) int32 {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.rows) != 1 {
		t.Fatalf("engine holds %d rows, want 1", len(e.rows))
	}
	for _, refs := range e.rows {
		return refs
	}
	return 0
}

func TestReannounceSameRouteIsNoOp(t *testing.T) {
	e := New(Options{})
	e.Announce("rc0", 10, pfxA, []uint32{10, 20, 30})
	before := tablesOf(e)
	// Prepending differs on the wire but cleans to the same route.
	e.Announce("rc0", 10, pfxA, []uint32{10, 20, 30, 30})
	if after := tablesOf(e); after != before {
		t.Errorf("re-announce changed tables: %+v → %+v", before, after)
	}
	if refs := soleEntryRefs(t, e); refs != 1 {
		t.Errorf("re-announce left refs = %d, want 1", refs)
	}
}

func TestWithdrawNeverAnnouncedIsNoOp(t *testing.T) {
	e := New(Options{})
	e.Announce("rc0", 10, pfxA, []uint32{10, 20, 30})
	before := tablesOf(e)
	e.Withdraw("rc0", 10, pfxB) // same VP, other prefix
	e.Withdraw("rc0", 11, pfxA) // same prefix, other VP
	if after := tablesOf(e); after != before {
		t.Errorf("withdraw of a never-announced route changed tables: %+v → %+v", before, after)
	}
}

func TestDroppedAnnounceThenWithdrawLeavesNoSlot(t *testing.T) {
	e := New(Options{})
	e.Announce("rc0", 10, pfxA, []uint32{10, 64512, 30}) // reserved ASN: sanitize drops it
	if got := tablesOf(e); got != (tables{rib: 1}) {
		t.Fatalf("dropped announce: tables = %+v, want a nil RIB slot only", got)
	}
	e.Withdraw("rc0", 10, pfxA)
	if got := tablesOf(e); got != (tables{}) {
		t.Errorf("withdraw after dropped announce: tables = %+v, want empty", got)
	}
}

func TestSharedEntrySurvivesOneWithdraw(t *testing.T) {
	e := New(Options{})
	e.Announce("rc0", 10, pfxA, []uint32{10, 20, 30})
	e.Announce("rc0", 11, pfxA, []uint32{10, 20, 30})
	if got := tablesOf(e); got != (tables{rib: 2, entries: 1, seqs: 1, paths: 1}) {
		t.Fatalf("two VPs, one cleaned path: tables = %+v", got)
	}
	if refs := soleEntryRefs(t, e); refs != 2 {
		t.Fatalf("shared entry refs = %d, want 2", refs)
	}
	e.Withdraw("rc0", 10, pfxA)
	if got := tablesOf(e); got != (tables{rib: 1, entries: 1, seqs: 1, paths: 1}) {
		t.Errorf("after one withdraw: tables = %+v", got)
	}
	e.Withdraw("rc0", 11, pfxA)
	if got := tablesOf(e); got != (tables{}) {
		t.Errorf("after both withdraws: tables = %+v, want empty", got)
	}
}

func TestFirstEpochIsInitialRebuild(t *testing.T) {
	// Even with nothing announced — the computed clique then equals the
	// engine's initial empty one — epoch 1 is a rebuild, and epoch 2 is
	// not.
	e := New(Options{})
	_, first := e.CommitEpoch(context.Background())
	if first.Decision != DecisionRebuild || first.Reason != ReasonInitial {
		t.Errorf("epoch 1 = %s/%s, want %s/%s", first.Decision, first.Reason, DecisionRebuild, ReasonInitial)
	}
	_, second := e.CommitEpoch(context.Background())
	if second.Decision != DecisionIncremental || second.Reason != ReasonSteady {
		t.Errorf("epoch 2 = %s/%s, want %s/%s", second.Decision, second.Reason, DecisionIncremental, ReasonSteady)
	}
	if st := e.Stats(); st.Epochs != 2 || st.FullRebuilds != 1 {
		t.Errorf("stats = %+v, want 2 epochs, 1 rebuild", st)
	}
}

// TestCommitPhasesOneVocabulary: each serial phase of a commit is timed
// once and lands on three surfaces under one name — a PhaseMillis
// field, a label value of the commit-phase histogram family, and a
// stream.commit.* span — and the total brackets them all.
func TestCommitPhasesOneVocabulary(t *testing.T) {
	want := []string{"compose", "credit", "infer", "rank_clique", "slab"}
	if n := reflect.TypeOf(PhaseMillis{}).NumField(); n != len(want) {
		t.Fatalf("PhaseMillis has %d fields, the test knows %d phases", n, len(want))
	}

	tr := trace.New()
	ctx, root := tr.StartSpan(context.Background(), "asrankd.stream_epoch")
	e := New(Options{})
	e.Announce("rc0", 10, pfxA, []uint32{10, 20, 30})
	e.Announce("rc0", 11, pfxB, []uint32{11, 20, 40})
	_, rep := e.CommitEpoch(ctx)
	root.End()

	ph := rep.Phases
	for i, ms := range []float64{ph.Compose, ph.Credit, ph.Infer, ph.RankClique, ph.Slab} {
		if ms <= 0 {
			t.Errorf("phase %s reported %.6f ms", want[i], ms)
		}
	}
	if sum := ph.RankClique + ph.Infer + ph.Credit + ph.Slab + ph.Compose; rep.TotalMillis < sum {
		t.Errorf("total %.6f ms < sum of phases %.6f ms", rep.TotalMillis, sum)
	}
	if rep.WatermarkMillis <= 0 {
		t.Errorf("watermark = %.6f ms with two events pending", rep.WatermarkMillis)
	}

	var labels []string
	const series = `asrank_stream_commit_phase_duration_seconds_count{phase="`
	for _, line := range strings.Split(obs.Default().Expose(), "\n") {
		if rest, ok := strings.CutPrefix(line, series); ok {
			labels = append(labels, rest[:strings.IndexByte(rest, '"')])
		}
	}
	if !reflect.DeepEqual(labels, want) { // exposition sorts series by label value
		t.Errorf("histogram phase labels = %v, want %v", labels, want)
	}

	var spans []string
	var commit *trace.Span
	for _, s := range tr.Flight() {
		if s.Name == "stream.commit" {
			commit = s
		}
		if rest, ok := strings.CutPrefix(s.Name, "stream.commit."); ok {
			spans = append(spans, rest)
		}
	}
	sort.Strings(spans)
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("stream.commit.* spans = %v, want %v", spans, want)
	}
	if commit == nil || commit.Parent != root.ID {
		t.Errorf("stream.commit span %+v is not a child of the epoch root", commit)
	}
}

// TestCommitReportSizesTheGraph: every report carries the size of the
// graph steps 5–9 ran over — on the report, on /debug/epochs (the same
// struct) and on the stream.commit journal event — and follows the
// table as it shrinks.
func TestCommitReportSizesTheGraph(t *testing.T) {
	journal := oplog.New(oplog.Options{RingSize: 8})
	e := New(Options{Journal: journal})
	e.Announce("rc0", 10, pfxA, []uint32{10, 20, 30})
	e.Announce("rc0", 11, pfxB, []uint32{11, 20, 40})
	snap, rep := e.CommitEpoch(context.Background())
	if rep.Links != 4 || rep.ASes != 5 || rep.Links != len(snap.Links) {
		t.Errorf("report sizes the graph at %d links, %d ASes; the snapshot has %d links over 5 ASes", rep.Links, rep.ASes, len(snap.Links))
	}
	e.Withdraw("rc0", 11, pfxB)
	if _, rep = e.CommitEpoch(context.Background()); rep.Links != 2 || rep.ASes != 3 {
		t.Errorf("after the withdraw: %d links, %d ASes, want 2 and 3", rep.Links, rep.ASes)
	}
	last := journal.Recent()[len(journal.Recent())-1]
	got := map[string]int64{}
	for _, a := range last.Attrs {
		got[a.Key] = a.Int
	}
	if last.Name != "stream.commit" || got["links"] != 2 || got["ases"] != 3 {
		t.Errorf("journaled %s with links=%d ases=%d, want stream.commit with 2 and 3", last.Name, got["links"], got["ases"])
	}
}
