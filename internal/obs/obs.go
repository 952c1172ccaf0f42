// Package obs is the repo's dependency-free observability subsystem:
// atomic counters and gauges, fixed-bucket histograms of atomic bucket
// counters (so instrumentation never takes a lock on the parallel
// engines' paths), a process-global default registry plus injectable
// registries for tests, and Prometheus text-format exposition.
//
// Metric names follow the scheme asrank_<subsystem>_<name>, e.g.
// asrank_pool_tasks_total or asrank_http_request_duration_seconds.
// Registration is idempotent: asking a registry for an already-known
// family returns the existing metric, and conflicting re-registration
// (different type, label set, or buckets under one name) panics at
// init time rather than corrupting the exposition.
package obs

import (
	"fmt"
	"regexp"
	"slices"
	"sort"
	"sync"
)

// Registry holds metric families and renders them. The zero value is
// not usable; call NewRegistry (or use Default).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry, for tests or scoped pipelines.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// defaultRegistry is the process-global registry every package-level
// instrumentation site registers into.
var defaultRegistry = NewRegistry()

// Default returns the process-global registry.
func Default() *Registry { return defaultRegistry }

// metricKind is the exposition type of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one named metric with a fixed label set: either a single
// unlabeled child (key "") or one child per observed label-value tuple.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64 // histogram upper bounds; nil otherwise

	mu       sync.RWMutex
	children map[string]*child
}

// child is one series: the label values plus the metric holding them.
type child struct {
	values []string
	metric any // *Counter, *Gauge, or *Histogram
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// familyFor returns the family registered under name, creating it on
// first use and panicking on any conflicting re-registration.
func (r *Registry) familyFor(name, help string, kind metricKind, bounds []float64, labels []string) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRe.MatchString(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || !slices.Equal(f.labels, labels) || !slices.Equal(f.bounds, bounds) {
			panic(fmt.Sprintf("obs: conflicting registration of %q", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]*child),
	}
	r.fams[name] = f
	return f
}

// childFor returns the series for the given label values, creating it
// on first use.
func (f *family) childFor(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := joinValues(values)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c.metric
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c.metric
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		m = newHistogram(f.bounds)
	}
	f.children[key] = &child{values: append([]string(nil), values...), metric: m}
	return m
}

// snapshotChildren returns the family's series sorted by label values.
func (f *family) snapshotChildren() []*child {
	f.mu.RLock()
	defer f.mu.RUnlock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*child, len(keys))
	for i, k := range keys {
		out[i] = f.children[k]
	}
	return out
}

// snapshotFamilies returns the registry's families sorted by name.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*family, len(names))
	for i, n := range names {
		out[i] = r.fams[n]
	}
	return out
}

// Counter returns the unlabeled counter registered under name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.familyFor(name, help, kindCounter, nil, nil).childFor(nil).(*Counter)
}

// CounterVec returns the labeled counter family registered under name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: CounterVec %q needs labels", name))
	}
	return &CounterVec{f: r.familyFor(name, help, kindCounter, nil, labels)}
}

// Gauge returns the unlabeled gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.familyFor(name, help, kindGauge, nil, nil).childFor(nil).(*Gauge)
}

// GaugeVec returns the labeled gauge family registered under name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: GaugeVec %q needs labels", name))
	}
	return &GaugeVec{f: r.familyFor(name, help, kindGauge, nil, labels)}
}

// Histogram returns the unlabeled histogram registered under name.
// Buckets are upper bounds, strictly ascending; +Inf is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	checkBuckets(name, buckets)
	return r.familyFor(name, help, kindHistogram, buckets, nil).childFor(nil).(*Histogram)
}

// HistogramVec returns the labeled histogram family registered under
// name. All children share the bucket layout.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: HistogramVec %q needs labels", name))
	}
	checkBuckets(name, buckets)
	return &HistogramVec{f: r.familyFor(name, help, kindHistogram, buckets, labels)}
}

func checkBuckets(name string, buckets []float64) {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly ascending", name))
		}
	}
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.childFor(values).(*Counter)
}

// Sum returns the total across every series in the family — the
// aggregate an SLO reads without caring how the family is labeled.
func (v *CounterVec) Sum() uint64 {
	var n uint64
	for _, c := range v.f.snapshotChildren() {
		n += c.metric.(*Counter).Value()
	}
	return n
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.childFor(values).(*Gauge)
}

// Sum returns the total across every series in the family (e.g. the
// whole shed queue depth across routes).
func (v *GaugeVec) Sum() float64 {
	var n float64
	for _, c := range v.f.snapshotChildren() {
		n += c.metric.(*Gauge).Value()
	}
	return n
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.childFor(values).(*Histogram)
}

// joinValues builds the child map key; NUL never appears in our label
// values (they are fixed enum-like strings).
func joinValues(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := 0
	for _, v := range values {
		n += len(v) + 1
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, 0)
		}
		b = append(b, v...)
	}
	return string(b)
}
