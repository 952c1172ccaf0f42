package paths

import "github.com/asrank-go/asrank/internal/obs"

// Read metrics, recorded into the process-global registry on every Read
// call: the stage's wall time and the rows it produced.
var (
	readDuration = obs.Default().Histogram("asrank_paths_read_duration_seconds",
		"Wall time of one Read of a path-text corpus.", obs.DurationBuckets)
	readRows = obs.Default().Counter("asrank_paths_read_rows_total",
		"Rows parsed from path-text corpora.")
)

// Sanitization metrics, recorded into the process-global registry on
// every Sanitize call. Drop reasons mirror the SanitizeStats fields so
// the /metrics surface and the R1 experiment table agree; the paths fed
// in are kept + Σ dropped, as SanitizeStats.Input is.
var (
	sanDuration = obs.Default().Histogram("asrank_sanitize_duration_seconds",
		"Wall time of one Sanitize pass over a path corpus.", obs.DurationBuckets)
	sanKept = obs.Default().Counter("asrank_sanitize_paths_kept_total",
		"Paths surviving sanitization.")
	sanDropped = obs.Default().CounterVec("asrank_sanitize_paths_dropped_total",
		"Paths discarded by sanitization, by filter.", "reason")
	sanRewritten = obs.Default().CounterVec("asrank_sanitize_paths_rewritten_total",
		"Kept paths rewritten by sanitization, by change.", "change")
)

// record publishes one pass's counts.
func (st SanitizeStats) record() {
	sanKept.Add(uint64(st.Kept))
	sanDropped.With("reserved").Add(uint64(st.ReservedDiscarded))
	sanDropped.With("loop").Add(uint64(st.LoopDiscarded))
	sanDropped.With("too_short").Add(uint64(st.TooShort))
	sanDropped.With("duplicate").Add(uint64(st.Duplicates))
	sanRewritten.With("prepending").Add(uint64(st.PrependingRemoved))
	sanRewritten.With("ixp").Add(uint64(st.IXPSpliced))
}
