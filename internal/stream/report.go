package stream

import (
	"encoding/json"
	"net/http"

	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/oplog"
)

// This file is the engine's provenance layer. The paper the pipeline
// reproduces justifies every inferred relationship with a numbered
// step; CommitReport applies the same standard to the engine's own
// operational decisions — every epoch records whether the clique held
// or every path's poisoned flag had to be re-evaluated, why, what
// region was dirty, and where the time went, so "why was epoch 412
// slow" is answered by a journal lookup instead of a reconstruction.

// Decision values for CommitReport. Both run the same commit path;
// "rebuild" marks the epochs that re-evaluated every entry's poisoned
// flag, and keeps its name for readers of the report.
const (
	DecisionRebuild     = "rebuild"
	DecisionIncremental = "incremental"
)

// Reason values for CommitReport.
const (
	ReasonInitial     = "initial"      // first epoch: everything is new
	ReasonCliqueChurn = "clique_churn" // clique changed, every poisoned flag re-evaluated
	ReasonSteady      = "steady"       // clique held, dirty links only
)

// SlabFull is the only CommitReport.Slab value: every epoch builds its
// cones in full from the credit table.
const SlabFull = "full"

// commitPhaseDuration is the /metrics view of PhaseMillis: one series
// per phase, labelled rank_clique, infer, credit, slab, compose — the
// same names as the stream.commit.* spans, because each phase is timed
// once (trace.Phase) and delivered to all three surfaces.
var commitPhaseDuration = obs.Default().HistogramVec("asrank_stream_commit_phase_duration_seconds",
	"Wall time of one serial phase of a streaming epoch commit, by phase.",
	obs.DurationBuckets, "phase")

// PhaseMillis breaks one commit into its serial phases, in wall-clock
// milliseconds. Instrumentation only: phase times never influence what
// the engine computes.
type PhaseMillis struct {
	RankClique float64 `json:"rankCliqueMillis"` // steps 2–3 + flag flips when the clique changed
	Infer      float64 `json:"inferMillis"`      // steps 5–9 over the kept layer
	Credit     float64 `json:"creditMillis"`     // re-credit walks over the dirty links
	Slab       float64 `json:"slabMillis"`       // cone member lists built from the credit table
	Compose    float64 `json:"composeMillis"`    // columnar snapshot composition
}

// CommitReport is one epoch's provenance record: whether the clique
// held (Decision, Reason), the dirty-region counts — populated on
// every epoch, clique churn included — per-phase durations, and the
// update-to-serve watermark (how stale the oldest unserved route event
// was when the epoch began serving). Each report is journaled whole,
// appended to the warehouse manifest as an opaque annotation, and served
// from the journal on /debug/epochs.
type CommitReport struct {
	Epoch    int    `json:"epoch"`
	Decision string `json:"decision"`
	Reason   string `json:"reason"`
	// Slab is the constant SlabFull: patching or reusing the previous
	// epoch's cone slab saved 0.4 ms of a 114 ms commit at 5k ASes and
	// was removed. The field stays for readers of the report's JSON
	// shape, as the phase keeps its name.
	Slab string `json:"slab"`

	// Accounting for the dirty region. Events counts route events
	// folded since the previous commit; DirtyLinks counts links whose
	// inferred relationship is new, changed or gone. The three path
	// counts are in distinct hop sequences — the unit the credit table
	// is kept in — not rows: RecreditedPaths counts kept sequences
	// re-walked because they cross a dirty link, those that entered
	// since the last commit included; NewlyCredited and UncreditedPaths
	// count sequences that entered and left the kept layer since the
	// last commit — first announced or un-poisoned by a clique change,
	// last row withdrawn or poisoned by one. A sequence that entered
	// and left between two commits counts in both.
	//
	// What the engine holds after the commit: Entries is corpus rows,
	// RIBRoutes routes, Sequences the distinct hop sequences those rows
	// carry, LinkIndex the link-index memberships ((kept link, sequence
	// crossing it) pairs). Links and ASes size the graph steps 5–9 ran
	// over — labeled links and ranked ASes — so infer time per link is a
	// division, not a profile.
	Events          int `json:"events"`
	DirtyLinks      int `json:"dirtyLinks"`
	RecreditedPaths int `json:"recreditedPaths"`
	UncreditedPaths int `json:"uncreditedPaths"`
	NewlyCredited   int `json:"newlyCredited"`
	Entries         int `json:"entries"`
	RIBRoutes       int `json:"ribRoutes"`
	Sequences       int `json:"sequences"`
	LinkIndex       int `json:"linkIndex"`
	Links           int `json:"links"`
	ASes            int `json:"ases"`

	Phases          PhaseMillis `json:"phases"`
	TotalMillis     float64     `json:"totalMillis"`
	WatermarkMillis float64     `json:"watermarkMillis"` // 0 when no events were pending
}

// EpochsHandler serves the stream.commit reports still in the journal's
// ring as JSON — the /debug/epochs timeline. Shape:
// {"reports":[{...},...]}, oldest first.
func EpochsHandler(j *oplog.Journal) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var reports []json.RawMessage
		for _, ev := range j.Recent() {
			if ev.Name != "stream.commit" {
				continue
			}
			for _, a := range ev.Attrs {
				if a.Key == "report" && a.JSON {
					reports = append(reports, json.RawMessage(a.Str))
				}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Reports []json.RawMessage `json:"reports"`
		}{Reports: reports})
	})
}
