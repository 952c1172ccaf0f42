// Package validation assembles relationship ground-truth corpora from
// the paper's three sources — operator-reported relationships, RPSL
// routing policy, and relationship-encoding BGP communities — and
// scores inferences against them (PPV per relationship type, per
// source, and per pipeline step).
package validation

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/asrank-go/asrank/internal/bgp"
	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/mrt"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stats"
	"github.com/asrank-go/asrank/internal/topology"
)

// Source identifies where a validation datum came from.
type Source uint8

// Validation sources.
const (
	SourceReported Source = 1 << iota
	SourceRPSL
	SourceCommunities
)

// String names the source mask.
func (s Source) String() string {
	var parts []string
	if s&SourceReported != 0 {
		parts = append(parts, "reported")
	}
	if s&SourceRPSL != 0 {
		parts = append(parts, "rpsl")
	}
	if s&SourceCommunities != 0 {
		parts = append(parts, "communities")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Entry is one validated link.
type Entry struct {
	Rel     topology.Relationship // canonical orientation (Link.A vs Link.B)
	Sources Source
}

// Corpus accumulates validation data, tracking cross-source agreement.
type Corpus struct {
	entries   map[paths.Link]Entry
	conflicts map[paths.Link]bool
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{
		entries:   make(map[paths.Link]Entry),
		conflicts: make(map[paths.Link]bool),
	}
}

// Add inserts one validated relationship (canonical orientation). When
// sources disagree about a link, the link is dropped from the corpus —
// the paper discards conflicted validation data.
func (c *Corpus) Add(l paths.Link, rel topology.Relationship, src Source) {
	if c.conflicts[l] {
		return
	}
	e, ok := c.entries[l]
	if !ok {
		c.entries[l] = Entry{Rel: rel, Sources: src}
		return
	}
	if e.Rel != rel {
		c.conflicts[l] = true
		delete(c.entries, l)
		return
	}
	e.Sources |= src
	c.entries[l] = e
}

// AddAll inserts a whole relationship map from one source.
func (c *Corpus) AddAll(rels map[paths.Link]topology.Relationship, src Source) {
	for l, r := range rels {
		c.Add(l, r, src)
	}
}

// Entries returns the corpus content (excluding conflicted links).
func (c *Corpus) Entries() map[paths.Link]Entry {
	out := make(map[paths.Link]Entry, len(c.entries))
	for l, e := range c.entries {
		out[l] = e
	}
	return out
}

// Len returns the number of validated links.
func (c *Corpus) Len() int { return len(c.entries) }

// Conflicts returns how many links were dropped for cross-source
// disagreement.
func (c *Corpus) Conflicts() int { return len(c.conflicts) }

// CorpusStats summarizes corpus composition for the validation-data
// table (R4).
type CorpusStats struct {
	Total     int
	BySource  map[Source]int // links carrying each single source bit
	MultiSrc  int            // links confirmed by 2+ sources
	Conflicts int
	C2P, P2P  int
}

// Stats computes corpus composition counts.
func (c *Corpus) Stats() CorpusStats {
	st := CorpusStats{
		Total:     len(c.entries),
		BySource:  map[Source]int{},
		Conflicts: len(c.conflicts),
	}
	for _, e := range c.entries {
		for _, s := range []Source{SourceReported, SourceRPSL, SourceCommunities} {
			if e.Sources&s != 0 {
				st.BySource[s]++
			}
		}
		if e.Sources&(e.Sources-1) != 0 {
			st.MultiSrc++
		}
		if e.Rel == topology.P2P {
			st.P2P++
		} else {
			st.C2P++
		}
	}
	return st
}

// Reported samples the paper's first source: relationships operators
// reported directly. frac of the topology's links are sampled; noiseFrac
// of those are mislabeled (operators misreport occasionally).
func Reported(topo *topology.Topology, frac, noiseFrac float64, seed int64) map[paths.Link]topology.Relationship {
	rng := stats.NewRNG(seed)
	out := make(map[paths.Link]topology.Relationship)
	links := topo.Links()
	ordered := paths.SortedLinks(countsOf(links))
	for _, l := range ordered {
		if !rng.Bool(frac) {
			continue
		}
		rel := links[l]
		if rng.Bool(noiseFrac) {
			// Misreport: flip c2p<->p2p.
			if rel == topology.P2P {
				rel = topology.P2C
			} else {
				rel = topology.P2P
			}
		}
		out[l] = rel
	}
	return out
}

func countsOf(m map[paths.Link]topology.Relationship) map[paths.Link]int {
	out := make(map[paths.Link]int, len(m))
	for l := range m {
		out[l] = 1
	}
	return out
}

// FromPathCommunities extracts relationships encoded in a path's
// communities: community X:code means AS X learned this route over the
// link to the AS that follows X in the path, with code identifying the
// ingress relationship (see bgpsim community codes).
func FromPathCommunities(path []uint32, comms []bgp.Community) map[paths.Link]topology.Relationship {
	if len(comms) == 0 || len(path) < 2 {
		return nil
	}
	pos := make(map[uint32]int, len(path))
	for i, a := range path {
		pos[a] = i
	}
	out := make(map[paths.Link]topology.Relationship)
	for _, c := range comms {
		x := uint32(c.ASN())
		i, ok := pos[x]
		if !ok || i+1 >= len(path) {
			continue
		}
		next := path[i+1]
		var relXtoNext topology.Relationship
		switch c.Value() {
		case bgpsim.CommunityFromCustomer:
			relXtoNext = topology.P2C
		case bgpsim.CommunityFromPeer:
			relXtoNext = topology.P2P
		case bgpsim.CommunityFromProvider:
			relXtoNext = topology.C2P
		default:
			continue
		}
		l := paths.NewLink(x, next)
		if l.A != x {
			relXtoNext = relXtoNext.Invert()
		}
		out[l] = relXtoNext
	}
	return out
}

// FromCommunitiesMRT scans a TABLE_DUMP_V2 RIB snapshot and extracts
// every community-encoded relationship, dropping links whose community
// evidence is self-contradictory. An entry's hops are read as
// paths.WireHops reads them, so an entry with an AS_SET contributes
// nothing.
func FromCommunitiesMRT(r io.Reader) (map[paths.Link]topology.Relationship, error) {
	votes := make(map[paths.Link]map[topology.Relationship]bool)
	rr := mrt.NewRIBReader(r)
	for {
		e, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("validation: reading RIB: %w", err)
		}
		attrs := e.RIBEntry.Attrs
		hops, _ := paths.WireHops(e.Peer.ASN, attrs.Path())
		for l, rel := range FromPathCommunities(hops, attrs.Communities) {
			m, ok := votes[l]
			if !ok {
				m = make(map[topology.Relationship]bool, 1)
				votes[l] = m
			}
			m[rel] = true
		}
	}
	out := make(map[paths.Link]topology.Relationship, len(votes))
	for l, m := range votes {
		if len(m) == 1 {
			for rel := range m {
				out[l] = rel
			}
		}
	}
	return out, nil
}

// Metrics scores an inference against validation data.
type Metrics struct {
	C2PTotal, C2PCorrect int
	P2PTotal, P2PCorrect int
	// Coverage is the fraction of inferred links that had validation
	// data.
	Coverage float64
}

// C2PPPV returns the positive predictive value of c2p inferences.
func (m Metrics) C2PPPV() float64 {
	if m.C2PTotal == 0 {
		return 0
	}
	return float64(m.C2PCorrect) / float64(m.C2PTotal)
}

// P2PPPV returns the positive predictive value of p2p inferences.
func (m Metrics) P2PPPV() float64 {
	if m.P2PTotal == 0 {
		return 0
	}
	return float64(m.P2PCorrect) / float64(m.P2PTotal)
}

// Overall returns the PPV across both relationship types.
func (m Metrics) Overall() float64 {
	total := m.C2PTotal + m.P2PTotal
	if total == 0 {
		return 0
	}
	return float64(m.C2PCorrect+m.P2PCorrect) / float64(total)
}

// Evaluate scores inferred relationships against truth (both in
// canonical orientation).
func Evaluate(inferred, truth map[paths.Link]topology.Relationship) Metrics {
	var m Metrics
	validated := 0
	for l, rel := range inferred {
		want, ok := truth[l]
		if !ok {
			continue
		}
		validated++
		if rel == topology.P2P {
			m.P2PTotal++
			if want == topology.P2P {
				m.P2PCorrect++
			}
		} else {
			m.C2PTotal++
			if want == rel {
				m.C2PCorrect++
			}
		}
	}
	if len(inferred) > 0 {
		m.Coverage = float64(validated) / float64(len(inferred))
	}
	return m
}

// EvaluateCorpus scores an inference against a corpus.
func EvaluateCorpus(inferred map[paths.Link]topology.Relationship, c *Corpus) Metrics {
	truth := make(map[paths.Link]topology.Relationship, c.Len())
	for l, e := range c.Entries() {
		truth[l] = e.Rel
	}
	return Evaluate(inferred, truth)
}

// StepMetrics scores each pipeline step separately (the per-step PPV
// table in R5).
func StepMetrics(res *core.Result, truth map[paths.Link]topology.Relationship) map[core.Step]Metrics {
	byStep := map[core.Step]map[paths.Link]topology.Relationship{}
	for _, l := range res.Labels {
		m, ok := byStep[l.Step]
		if !ok {
			m = make(map[paths.Link]topology.Relationship)
			byStep[l.Step] = m
		}
		m[l.Link] = l.Rel
	}
	out := make(map[core.Step]Metrics, len(byStep))
	for s, rels := range byStep {
		out[s] = Evaluate(rels, truth)
	}
	return out
}

// OrderedSteps returns the steps present in a StepMetrics map in
// pipeline order.
func OrderedSteps(m map[core.Step]Metrics) []core.Step {
	var out []core.Step
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
