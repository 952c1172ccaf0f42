// Package experiments implements the reproduction of the paper's
// evaluation: every table and figure (R1–R12 in DESIGN.md) is a
// function that builds its workload, runs the system, and renders a
// plain-text table or series. The cmd/experiments binary and the
// top-level benchmarks both drive this package.
package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/rpsl"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/validation"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// Config scales the experiment workloads.
type Config struct {
	Seed      int64
	Scale     int // AS count of the base topology
	VPs       int // vantage points in the base collection
	Snapshots int // longitudinal series length
	// Warehouse optionally names an epoch-store directory backing the
	// evolution runners (R3/R8/R9): when it already holds the series,
	// prior epochs are decoded instead of re-simulated and re-inferred;
	// when it does not, the computed series is persisted into it for
	// the next run. The directory must belong to this configuration —
	// epochs are matched by position, not by content.
	Warehouse string
}

// DefaultConfig is the full-size configuration used by the
// cmd/experiments binary. The VP density (1 per 100 ASes) matches the
// paper's setting of a few hundred full-feed VPs on a ~45k-AS Internet.
func DefaultConfig() Config {
	return Config{Seed: 20130401, Scale: 4000, VPs: 40, Snapshots: 16}
}

// Lab lazily builds and caches the expensive shared artifacts: the base
// topology, the simulated collection, the sanitized corpus, the
// inference, and the longitudinal series.
type Lab struct {
	Cfg Config

	topo   *topology.Topology
	sim    *bgpsim.Result
	clean  *paths.Dataset
	san    paths.SanitizeStats
	res    *core.Result
	series []*topology.Topology
	snaps  []*warehouse.Snapshot
	corpus *validation.Corpus
	mrtRIB []byte
}

// NewLab returns a lab for the given configuration.
func NewLab(cfg Config) *Lab { return &Lab{Cfg: cfg} }

// Topo returns the base ground-truth topology.
func (l *Lab) Topo() *topology.Topology {
	if l.topo == nil {
		p := topology.DefaultParams(l.Cfg.Seed)
		p.ASes = l.Cfg.Scale
		l.topo = topology.Generate(p)
	}
	return l.topo
}

// Sim returns the base simulated collection.
func (l *Lab) Sim() *bgpsim.Result {
	if l.sim == nil {
		opts := bgpsim.DefaultOptions(l.Cfg.Seed)
		opts.NumVPs = l.Cfg.VPs
		res, err := bgpsim.Run(l.Topo(), opts)
		if err != nil {
			panic(fmt.Sprintf("experiments: simulation failed: %v", err))
		}
		l.sim = res
	}
	return l.sim
}

// Clean returns the sanitized corpus and the sanitization stats.
func (l *Lab) Clean() (*paths.Dataset, paths.SanitizeStats) {
	if l.clean == nil {
		l.clean, l.san = paths.Sanitize(l.Sim().Dataset, paths.SanitizeOptions{})
	}
	return l.clean, l.san
}

// Infer returns the base inference.
func (l *Lab) Infer() *core.Result {
	if l.res == nil {
		ds, _ := l.Clean()
		l.res = core.Infer(ds, core.Options{})
	}
	return l.res
}

// Series returns the longitudinal snapshot series.
func (l *Lab) Series() []*topology.Topology {
	if l.series == nil {
		p := topology.DefaultParams(l.Cfg.Seed)
		// Start smaller so the final snapshot lands near Scale.
		start := l.Cfg.Scale / 3
		if start < 100 {
			start = 100
		}
		p.ASes = start
		e := topology.DefaultEvolveParams()
		e.Snapshots = l.Cfg.Snapshots
		l.series = topology.GenerateSeries(p, e)
	}
	return l.series
}

// EpochSnapshots returns the longitudinal inference series in columnar
// (warehouse) form, one snapshot per series topology. With a warehouse
// configured and already holding the full series, prior epochs are
// decoded from the store — no simulation or inference re-runs, but one
// chain replay per epoch (Store.Snapshot starts each at its checkpoint,
// so a cadence of k re-applies ~k/2 deltas per epoch on average); without
// one (or with a short store) each snapshot is simulated, sanitized,
// and inferred as before, and persisted when a warehouse is configured
// so the next run skips the recompute.
func (l *Lab) EpochSnapshots() []*warehouse.Snapshot {
	if l.snaps != nil {
		return l.snaps
	}
	series := l.Series()
	var store *warehouse.Store
	if l.Cfg.Warehouse != "" {
		st, err := warehouse.Open(l.Cfg.Warehouse, warehouse.Options{})
		if err != nil {
			panic(fmt.Sprintf("experiments: warehouse: %v", err))
		}
		store = st
	}
	if store != nil && store.Len() >= len(series) {
		out := make([]*warehouse.Snapshot, len(series))
		for i := range out {
			s, err := store.Snapshot(uint32(i))
			if err != nil {
				panic(fmt.Sprintf("experiments: warehouse epoch %d: %v", i, err))
			}
			out[i] = s
		}
		l.snaps = out
		return out
	}
	out := make([]*warehouse.Snapshot, len(series))
	for i, topo := range series {
		sim := mustRun(topo, simOptsFor(l, int64(i)))
		clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
		res := core.Infer(clean, core.Options{})
		out[i] = warehouse.FromResult(res)
		if store != nil && store.Len() == i {
			if _, err := store.Append(out[i], fmt.Sprintf("snapshot-%02d", i), ""); err != nil {
				panic(fmt.Sprintf("experiments: warehouse append %d: %v", i, err))
			}
		}
	}
	l.snaps = out
	return out
}

// SeriesLabels returns year-style labels for the series, ending at the
// paper's final snapshot year.
func (l *Lab) SeriesLabels() []string {
	n := len(l.Series())
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("%d", 2013-(n-1-i))
	}
	return labels
}

// MRT returns the base collection exported as a TABLE_DUMP_V2 snapshot.
func (l *Lab) MRT() []byte {
	if l.mrtRIB == nil {
		var buf bytes.Buffer
		ts := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
		if err := bgpsim.ExportMRT(&buf, l.Sim(), ts); err != nil {
			panic(fmt.Sprintf("experiments: MRT export failed: %v", err))
		}
		l.mrtRIB = buf.Bytes()
	}
	return l.mrtRIB
}

// Corpus returns the three-source validation corpus for the base run.
func (l *Lab) Corpus() *validation.Corpus {
	if l.corpus == nil {
		c := validation.NewCorpus()
		c.AddAll(validation.Reported(l.Topo(), 0.08, 0.01, l.Cfg.Seed), validation.SourceReported)
		autnums, err := rpsl.AutNums(rpsl.Generate(l.Topo(), rpsl.GenerateOptions{
			Seed: l.Cfg.Seed, RegisterFrac: 0.3, StaleFrac: 0.02,
		}))
		if err != nil {
			panic(fmt.Sprintf("experiments: RPSL generation failed: %v", err))
		}
		c.AddAll(rpsl.Relationships(autnums), validation.SourceRPSL)
		comm, err := validation.FromCommunitiesMRT(bytes.NewReader(l.MRT()))
		if err != nil {
			panic(fmt.Sprintf("experiments: community extraction failed: %v", err))
		}
		c.AddAll(comm, validation.SourceCommunities)
		l.corpus = c
	}
	return l.corpus
}

// Report is the rendered output of one experiment.
type Report struct {
	ID       string
	Title    string
	Sections []fmt.Stringer
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	b.WriteString(strings.Repeat("*", len(r.ID)+len(r.Title)+3))
	b.WriteString("\n\n")
	for i, s := range r.Sections {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(s.String())
	}
	return b.String()
}

// text is a plain-string section.
type text string

func (t text) String() string { return string(t) }

// Textf formats a plain-text report section.
func Textf(format string, args ...any) fmt.Stringer {
	return text(fmt.Sprintf(format, args...))
}
