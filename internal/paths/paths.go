// Package paths models the corpus of AS paths that relationship
// inference consumes: paths observed at route collectors from vantage
// point (VP) ASes, with the sanitization pass the ASRank paper applies
// before inference (prepending compression, loop/reserved/IXP filtering)
// and codecs for a plain-text interchange format and MRT RIB snapshots.
package paths

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
)

// Path is one AS path as seen at a collector: ASNs[0] is the VP (the
// collector's BGP peer) and ASNs[len-1] is the origin AS of Prefix.
//
// ASNs is read-only: a RIB is a few paths repeated across many
// prefixes, so Read and Sanitize hand rows that carry the same path a
// shared slice. Give a row new hops by assigning a new slice, never by
// writing through the old one.
type Path struct {
	Collector string
	Prefix    netip.Prefix
	ASNs      []uint32
}

// VP returns the vantage-point AS (first hop) of the path.
func (p Path) VP() uint32 {
	if len(p.ASNs) == 0 {
		return 0
	}
	return p.ASNs[0]
}

// Origin returns the origin AS (last hop) of the path.
func (p Path) Origin() uint32 {
	if len(p.ASNs) == 0 {
		return 0
	}
	return p.ASNs[len(p.ASNs)-1]
}

// Link is an undirected AS adjacency, normalized so A < B.
type Link struct {
	A, B uint32
}

// NewLink returns the normalized link between two ASes.
func NewLink(x, y uint32) Link {
	if x > y {
		x, y = y, x
	}
	return Link{A: x, B: y}
}

// String renders the link as "a-b".
func (l Link) String() string { return fmt.Sprintf("%d-%d", l.A, l.B) }

// Dataset is a corpus of AS paths: one row per (collector, prefix,
// path) observation. Rows may share one ASNs slice (see Path). The rows
// a producer returns are the caller's; SanitizeCtx, and core.Infer with
// Options.Sanitize, take the rows they are handed (see SanitizeCtx).
//
// A dataset that Read, FromMRT, Sanitize or core's step 4 returns also
// carries a grouping of its rows (see Groups), so that step 1, the
// corpus index and the observed cones work once per group, not once
// per row. Paths stays the caller's to append to, replace or
// reorder, so the grouping is trusted only while it still describes the
// rows (Dataset.Groups); otherwise the rows are taken one by one, as
// for any dataset built by hand.
type Dataset struct {
	Paths []Path

	groups *Groups // the producer's grouping of Paths; nil for a dataset built by hand
}

// Clone returns d's rows in an array of their own, carrying d's
// grouping; the hops stay shared, as they are read-only (see Path).
// SanitizeCtx and core.Infer with Options.Sanitize take the rows they
// are handed: a caller that needs d afterwards hands them d.Clone().
func (d *Dataset) Clone() *Dataset {
	return &Dataset{Paths: slices.Clone(d.Paths), groups: d.groups}
}

// Add appends a path to the dataset.
func (d *Dataset) Add(p Path) { d.Paths = append(d.Paths, p) }

// NumPaths returns the number of paths.
func (d *Dataset) NumPaths() int { return len(d.Paths) }

// ASes returns the set of ASNs appearing anywhere in the corpus.
func (d *Dataset) ASes() map[uint32]bool {
	set := make(map[uint32]bool)
	for _, p := range d.Paths {
		for _, a := range p.ASNs {
			set[a] = true
		}
	}
	return set
}

// VPs returns the set of vantage-point ASes with the number of paths
// each contributes.
func (d *Dataset) VPs() map[uint32]int {
	vps := make(map[uint32]int)
	for _, p := range d.Paths {
		if len(p.ASNs) > 0 {
			vps[p.ASNs[0]]++
		}
	}
	return vps
}

// Links returns every undirected adjacency with the number of paths it
// appears in.
func (d *Dataset) Links() map[Link]int {
	links := make(map[Link]int)
	for _, p := range d.Paths {
		for i := 0; i+1 < len(p.ASNs); i++ {
			links[NewLink(p.ASNs[i], p.ASNs[i+1])]++
		}
	}
	return links
}

// SortedLinks returns the keys of Links in deterministic order:
// CompareLinks order.
func SortedLinks(links map[Link]int) []Link {
	out := make([]Link, 0, len(links))
	for l := range links {
		out = append(out, l)
	}
	slices.SortFunc(out, CompareLinks)
	return out
}

// CompareLinks orders links by A, then by B.
func CompareLinks(x, y Link) int {
	return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
}

// Degrees returns the node degree (number of distinct neighbors) of
// every AS in the corpus.
func (d *Dataset) Degrees() map[uint32]int { return d.neighborCounts(0) }

// TransitDegrees returns the transit degree of every AS: the number of
// distinct neighbors an AS appears adjacent to in paths where it is in a
// transit (non-edge) position. Stub ASes and pure VP/origin endpoints
// have transit degree 0. This is the paper's primary ranking metric.
func (d *Dataset) TransitDegrees() map[uint32]int { return d.neighborCounts(1) }

// neighborCounts counts each AS's distinct neighbors over the hop
// positions at least edge hops from both ends of a path — all of them
// for the node degree, the transit ones for the transit degree. A path
// of one hop has no neighbors to count and registers no AS.
func (d *Dataset) neighborCounts(edge int) map[uint32]int {
	nbrs := make(map[uint32]map[uint32]bool)
	for _, p := range d.Paths {
		for i := edge; i+edge < len(p.ASNs) && len(p.ASNs) > 1; i++ {
			m, ok := nbrs[p.ASNs[i]]
			if !ok {
				m = make(map[uint32]bool)
				nbrs[p.ASNs[i]] = m
			}
			if i > 0 {
				m[p.ASNs[i-1]] = true
			}
			if i+1 < len(p.ASNs) {
				m[p.ASNs[i+1]] = true
			}
		}
	}
	out := make(map[uint32]int, len(nbrs))
	for a, m := range nbrs {
		out[a] = len(m)
	}
	return out
}

// MeanPathLength returns the mean number of AS hops (links) per path.
func (d *Dataset) MeanPathLength() float64 {
	if len(d.Paths) == 0 {
		return 0
	}
	var total int
	for _, p := range d.Paths {
		total += len(p.ASNs) - 1
	}
	return float64(total) / float64(len(d.Paths))
}
