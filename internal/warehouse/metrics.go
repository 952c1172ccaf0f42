package warehouse

import "github.com/asrank-go/asrank/internal/obs"

// segmentByteBuckets spans one tiny delta segment (~1 KiB) through a
// full epoch of a large topology (~256 MiB), ×4 per step.
var segmentByteBuckets = []float64{
	1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20,
}

// Metrics is the warehouse's instrumentation surface. All series
// follow the house grammar: asrank_warehouse_<what>[_total|_seconds|_bytes].
type Metrics struct {
	appendSeconds *obs.Histogram
	decodeSeconds *obs.Histogram
	segmentBytes  *obs.Histogram
	epochs        *obs.Gauge
	storeBytes    *obs.Gauge
	truncations   *obs.Counter
}

// NewMetrics registers (or re-binds, idempotently) the warehouse
// metric families on reg. A nil registry yields nil, and every Metrics
// method tolerates a nil receiver, so unobserved stores cost nothing.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		appendSeconds: reg.Histogram("asrank_warehouse_append_seconds",
			"Wall time to encode, write, and publish one epoch.", obs.DurationBuckets),
		decodeSeconds: reg.Histogram("asrank_warehouse_decode_seconds",
			"Wall time to materialize one snapshot from its segment chain.", obs.DurationBuckets),
		segmentBytes: reg.Histogram("asrank_warehouse_segment_bytes",
			"On-disk size of appended segments (full and delta); the _count is the epochs appended since process start.", segmentByteBuckets),
		epochs: reg.Gauge("asrank_warehouse_epochs_live",
			"Epochs currently readable from the store."),
		storeBytes: reg.Gauge("asrank_warehouse_store_bytes",
			"Total bytes of all live segment files."),
		truncations: reg.Counter("asrank_warehouse_recovery_truncations_total",
			"Epochs dropped at open time because their segments failed validation."),
	}
}

func (m *Metrics) observeAppend(bytes int) {
	if m == nil {
		return
	}
	m.segmentBytes.Observe(float64(bytes))
}

func (m *Metrics) setLive(epochs int, bytes int64) {
	if m == nil {
		return
	}
	m.epochs.Set(float64(epochs))
	m.storeBytes.Set(float64(bytes))
}

func (m *Metrics) addTruncations(n int) {
	if m == nil || n == 0 {
		return
	}
	m.truncations.Add(uint64(n))
}
