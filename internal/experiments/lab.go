// Package experiments implements the reproduction of the paper's
// evaluation: every table and figure (R1–R14 in DESIGN.md) is a
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
	// snapPathLen is the mean AS path length of each series snapshot's
	// sanitized corpus, recorded as EpochSnapshots builds it.
	snapPathLen []float64
	corpus      *validation.Corpus
	mrtRIB      []byte
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
// (warehouse) form: each series topology simulated, sanitized and
// inferred, one snapshot per topology. It is the only place the series
// pipeline runs.
func (l *Lab) EpochSnapshots() []*warehouse.Snapshot {
	if l.snaps != nil {
		return l.snaps
	}
	series := l.Series()
	out := make([]*warehouse.Snapshot, len(series))
	l.snapPathLen = make([]float64, len(series))
	for i, topo := range series {
		sim := mustRun(topo, simOptsFor(l, int64(i)))
		clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
		res := core.Infer(clean, core.Options{})
		out[i] = warehouse.FromResult(res)
		l.snapPathLen[i] = clean.MeanPathLength()
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
