package core

import (
	"github.com/asrank-go/asrank/internal/obs"
)

// Inference metrics. Step labels name the 14 pipeline stages in
// execution order: sanitize, index, rank, clique, poison, build,
// clique-p2p, providerless, top-down, vp, stub-clique, fold,
// peer-default, materialize. index is the part of folding the corpus
// index that step 1 did not hide (the folders run beside it); build is
// InferIndexed's dense id space over the kept layer, and materialize its
// write-back into the Result; fold is step 8. Stages that label links
// additionally count them into inferStepLinks under the same label.
var (
	inferRuns = obs.Default().Counter("asrank_infer_runs_total",
		"Full inference pipeline runs.")
	inferDuration = obs.Default().Histogram("asrank_infer_duration_seconds",
		"End-to-end wall time of one Infer call.", obs.DurationBuckets)
	inferStepDuration = obs.Default().HistogramVec("asrank_infer_step_duration_seconds",
		"Wall time of one pipeline stage.", obs.DurationBuckets, "step")
	inferStepLinks = obs.Default().CounterVec("asrank_infer_links_labeled_total",
		"Links labeled by each pipeline stage.", "step")
	inferCliqueSize = obs.Default().Gauge("asrank_infer_clique_size",
		"Members in the most recently inferred clique.")
	inferPoisoned = obs.Default().Counter("asrank_infer_poisoned_paths_total",
		"Paths discarded by the poisoned-path filter (step 4).")
)
