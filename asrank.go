// Package asrank infers the business relationships between autonomous
// systems — customer-to-provider (c2p) and settlement-free peering
// (p2p) — from publicly observable BGP AS paths, computes customer
// cones under three definitions, and validates inferences against
// operator-reported data, RPSL policy, and BGP communities. It is a
// from-scratch reproduction of the system described in "AS
// Relationships, Customer Cones, and Validation" (IMC 2013).
//
// The package is a facade over the building blocks in internal/:
//
//	paths      AS-path corpora, sanitization, text codec
//	mrt        MRT (RFC 6396) RIB reader/writer
//	core       the inference pipeline
//	cone       customer cones and AS ranking
//	topology   synthetic ground-truth Internets
//	bgpsim     valley-free route propagation (data substitute)
//	baseline   Gao 2001, Xia–Gao 2004, UCLA 2010 comparators
//	validation three-source ground-truth corpora and PPV scoring
//	rpsl       RPSL aut-num generation and parsing
//
// # Quick start
//
//	ds, err := asrank.ReadPathsFile("paths.txt")
//	clean, _ := asrank.Sanitize(ds, asrank.SanitizeOptions{})
//	res := asrank.Infer(clean, asrank.InferOptions{})
//	rels := asrank.NewRelations(res.Rels)
//	cones := rels.ProviderPeerObservedBits(res.Dataset)
//	rank := asrank.RankByCone(cones.Sizes(), res.TransitDegree)
//
// The parallel stages (sanitization, the cone engines) size their
// worker pool from GOMAXPROCS; results are identical at any setting.
//
// Lacking real collector data, the topology generator plus simulator
// produce a corpus with the same structure:
//
//	topo := asrank.GenerateInternet(asrank.DefaultTopologyParams(42))
//	sim, _ := asrank.Simulate(topo, asrank.DefaultSimOptions(42))
//	res := asrank.Infer(asrank.MustSanitize(sim.Dataset), asrank.InferOptions{})
package asrank

import (
	"io"
	"os"

	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// Core data types, re-exported from the internal packages.
type (
	// Path is one AS path observed at a collector. ASNs is read-only:
	// rows that carry the same path may share one slice.
	Path = paths.Path
	// Dataset is a corpus of AS paths, one row per (collector, prefix,
	// path) observation.
	Dataset = paths.Dataset
	// Link is an undirected AS adjacency, normalized so A < B.
	Link = paths.Link
	// Relationship is a business relationship, oriented relative to an
	// ordered AS pair.
	Relationship = topology.Relationship
	// SanitizeOptions controls path sanitization.
	SanitizeOptions = paths.SanitizeOptions
	// SanitizeStats counts what sanitization did.
	SanitizeStats = paths.SanitizeStats
	// InferOptions tunes the inference pipeline. With Sanitize set,
	// Infer takes the dataset it is handed (see core.Options.Sanitize).
	InferOptions = core.Options
	// Inference is the result of relationship inference.
	Inference = core.Result
	// Step identifies the pipeline stage that labeled a link.
	Step = core.Step
)

// Relationship values: P2C means "first AS provides transit to second".
const (
	None = topology.None
	P2C  = topology.P2C
	C2P  = topology.C2P
	P2P  = topology.P2P
)

// NewLink returns the normalized link between two ASes.
func NewLink(a, b uint32) Link { return paths.NewLink(a, b) }

// Sanitize applies the paper's step-1 cleaning: compress prepending,
// splice out IXP route servers, discard loops, reserved ASNs and exact
// duplicates.
func Sanitize(ds *Dataset, opts SanitizeOptions) (*Dataset, SanitizeStats) {
	return paths.Sanitize(ds, opts)
}

// MustSanitize is Sanitize with default options, discarding the stats;
// a convenience for examples and tests.
func MustSanitize(ds *Dataset) *Dataset {
	out, _ := paths.Sanitize(ds, paths.SanitizeOptions{})
	return out
}

// Infer runs the ASRank inference pipeline over a (sanitized) corpus.
// With opts.Sanitize it cleans ds's rows in place, and ds means nothing
// after the call (see core.Options.Sanitize); pass ds.Clone() to keep it.
func Infer(ds *Dataset, opts InferOptions) *Inference {
	return core.Infer(ds, opts)
}

// ReadPaths parses the text path format (collector|prefix|asn asn ...).
func ReadPaths(r io.Reader) (*Dataset, error) { return paths.Read(r) }

// WritePaths renders a corpus in the text path format.
func WritePaths(w io.Writer, ds *Dataset) error { return paths.Write(w, ds) }

// ReadPathsFile reads a text path file.
func ReadPathsFile(name string) (*Dataset, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return paths.Read(f)
}

// ReadMRT flattens a TABLE_DUMP_V2 RIB snapshot into a path corpus.
func ReadMRT(r io.Reader, collector string) (*Dataset, paths.MRTStats, error) {
	return paths.FromMRT(r, collector)
}

// ReadMRTFile reads an MRT RIB file.
func ReadMRTFile(name, collector string) (*Dataset, paths.MRTStats, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, paths.MRTStats{}, err
	}
	defer f.Close()
	return paths.FromMRT(f, collector)
}

// ReadMRTUpdates flattens a BGP4MP update trace into the corpus the
// trace converges to (latest announcement wins, withdrawals remove).
func ReadMRTUpdates(r io.Reader, collector string) (*Dataset, paths.UpdateStats, error) {
	return paths.FromMRTUpdates(r, collector)
}

// Cone API, re-exported.
type (
	// Relations indexes a relationship set for cone computation.
	Relations = cone.Relations
	// ConeRows is a cone product: each AS's cone as an ascending list
	// of interned AS positions, queried through Sizes, Members,
	// Contains and WeightedSizes.
	ConeRows = cone.Rows
)

// NewRelations indexes an inferred or ground-truth relationship map.
func NewRelations(rels map[Link]Relationship) *Relations {
	return cone.NewRelations(rels)
}

// RankByCone orders ASes by decreasing cone size — the AS Rank order.
func RankByCone(sizes map[uint32]int, transitDegree map[uint32]int) []uint32 {
	return cone.Rank(sizes, transitDegree)
}
