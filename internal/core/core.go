// Package core implements the ASRank relationship-inference algorithm:
// given the AS paths observable from route collectors, it infers which
// AS links are customer-to-provider (c2p) and which are settlement-free
// peering (p2p).
//
// The pipeline follows the paper's structure:
//
//  1. sanitize paths (delegated to internal/paths)
//  2. rank ASes by transit degree
//  3. infer the top clique with Bron–Kerbosch
//  4. discard poisoned paths (clique–nonclique–clique sandwiches)
//  5. infer c2p top-down in rank order from path triplets
//  6. infer c2p from partial-feed vantage points
//  7. infer c2p for stubs adjacent to clique members
//  8. infer c2p for unlabeled links with a large transit-degree fold
//  9. label every remaining link p2p
//
// Each inferred link carries provenance (the step that labeled it) so
// accuracy can be reported per step.
package core

import (
	"context"
	"slices"

	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/pool"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/trace"
)

// Step identifies which pipeline stage labeled a link.
type Step int8

// Pipeline steps, in execution order.
const (
	StepNone       Step = iota
	StepClique          // step 3: both endpoints in the inferred clique
	StepTopDown         // step 5: top-down triplet inference
	StepVP              // step 6: partial-feed vantage point first hops
	StepStubClique      // step 7: stub adjacent to a clique member
	StepFold            // step 8: transit-degree fold
	StepPeer            // step 9: default to p2p
)

// String names the step.
func (s Step) String() string {
	switch s {
	case StepNone:
		return "none"
	case StepClique:
		return "clique"
	case StepTopDown:
		return "top-down"
	case StepVP:
		return "vp"
	case StepStubClique:
		return "stub-clique"
	case StepFold:
		return "fold"
	case StepPeer:
		return "peer-default"
	}
	return "step?"
}

// ParseStep returns the step whose String is name, and false when no
// step has that name.
func ParseStep(name string) (Step, bool) {
	for s := StepNone; s <= StepPeer; s++ {
		if s.String() == name {
			return s, true
		}
	}
	return StepNone, false
}

// Options tunes the inference pipeline. The zero value selects the
// defaults used in the experiments.
type Options struct {
	// CliqueSeedSize is how many top-ranked ASes feed the Bron–Kerbosch
	// maximum-clique search (default 10).
	CliqueSeedSize int
	// FoldRatio is the step-8 threshold: label a link c2p when one
	// side's transit degree is at least FoldRatio times the other's
	// (default 10).
	FoldRatio float64
	// TopDownPasses bounds the step-5 fixpoint iteration (default 3).
	TopDownPasses int
	// Clique, when non-nil, skips clique inference and uses the given
	// members (for ablations).
	Clique []uint32
	// DisableProviderless turns off the provider-less peer-of-clique
	// detection (ablation).
	DisableProviderless bool
	// DisableFold turns off the step-8 transit-degree fold (ablation).
	DisableFold bool
	// Sanitize, when set, runs path sanitization first (step 1) with no
	// IXP route servers to splice; a caller that has some runs
	// paths.Sanitize itself. Most callers pass already-sanitized data.
	//
	// Step 1 then takes the corpus, as paths.SanitizeCtx does: it writes
	// the cleaned rows into the ones it is handed, so Result.Dataset.Paths
	// shares the caller's array, and it empties the dataset handed in,
	// which reads as no rows after the call. A caller that needs its rows
	// afterwards passes ds.Clone(). Without Sanitize the corpus is only
	// read.
	Sanitize bool
}

func (o Options) withDefaults() Options {
	if o.CliqueSeedSize <= 0 {
		o.CliqueSeedSize = 10
	}
	if o.FoldRatio <= 0 {
		o.FoldRatio = 10
	}
	if o.TopDownPasses <= 0 {
		o.TopDownPasses = 3
	}
	return o
}

// Label is one inferred link: its relationship in the canonical
// orientation (relative to Link.A) and the pipeline stage that labeled
// it.
type Label struct {
	Link paths.Link
	Rel  topology.Relationship
	Step Step
}

// Result is the output of relationship inference.
type Result struct {
	// Labels lists each observed link with its relationship and the
	// step that labeled it, in paths.SortedLinks order.
	Labels []Label
	// Rels maps each observed link to its inferred relationship in the
	// canonical orientation (relative to Link.A): P2C means Link.A is
	// the provider of Link.B. It holds the links of Labels, for lookup.
	Rels map[paths.Link]topology.Relationship
	// Clique is the inferred top clique, ascending ASN.
	Clique []uint32
	// Rank lists every observed AS in rank order (highest first).
	Rank []uint32
	// TransitDegree and Degree are the ranking metrics.
	TransitDegree map[uint32]int
	Degree        map[uint32]int
	// PoisonedPaths is the number of paths step 4 discarded.
	PoisonedPaths int
	// Providerless lists ASes inferred to peer with the clique instead
	// of buying transit (see inferencer.detectProviderless).
	Providerless []uint32
	// SanitizeStats reports step 1 when Options.Sanitize was set.
	SanitizeStats paths.SanitizeStats
	// Dataset is the post-step-4 corpus the inference actually used,
	// carrying its grouping by hop sequence (paths.Dataset.Groups), so
	// consumers that work per path do each distinct path once. With
	// Options.Sanitize its rows are written into the array Infer was
	// handed. InferIndexed, which has no corpus, leaves it nil.
	Dataset *paths.Dataset
}

// Rel returns the inferred relationship of x relative to y: P2C means x
// is y's provider.
func (r *Result) Rel(x, y uint32) topology.Relationship { return topology.RelOf(r.Rels, x, y) }

// Providers returns the inferred providers of asn, ascending.
func (r *Result) Providers(asn uint32) []uint32 {
	return r.neighborsWhere(asn, topology.C2P)
}

// Customers returns the inferred customers of asn, ascending.
func (r *Result) Customers(asn uint32) []uint32 {
	return r.neighborsWhere(asn, topology.P2C)
}

// Peers returns the inferred peers of asn, ascending.
func (r *Result) Peers(asn uint32) []uint32 {
	return r.neighborsWhere(asn, topology.P2P)
}

func (r *Result) neighborsWhere(asn uint32, want topology.Relationship) []uint32 {
	var out []uint32
	for l, rel := range r.Rels {
		var other uint32
		var oriented topology.Relationship
		switch asn {
		case l.A:
			other, oriented = l.B, rel
		case l.B:
			other, oriented = l.A, rel.Invert()
		default:
			continue
		}
		if oriented == want {
			out = append(out, other)
		}
	}
	slices.Sort(out)
	return out
}

// StepCounts tallies links per pipeline step, split by relationship.
type StepCounts struct {
	Step Step
	C2P  int
	P2P  int
}

// CountsByStep returns per-step link tallies in step order, feeding the
// pipeline-table experiment (R2).
func (r *Result) CountsByStep() []StepCounts {
	var byStep [StepPeer + 1]StepCounts
	for _, l := range r.Labels {
		c := &byStep[l.Step]
		if l.Rel == topology.P2P {
			c.P2P++
		} else {
			c.C2P++
		}
	}
	var out []StepCounts
	for s := StepClique; s <= StepPeer; s++ {
		if c := byStep[s]; c.C2P+c.P2P > 0 {
			c.Step = s
			out = append(out, c)
		}
	}
	return out
}

// Infer runs the full pipeline over a path corpus. With
// Options.Sanitize it takes ds (see there).
func Infer(ds *paths.Dataset, opts Options) *Result {
	return InferCtx(context.Background(), ds, opts)
}

// InferCtx is Infer with a context for tracing: when ctx carries a
// span, the run records a "core.infer" span with one child per
// pipeline step (core.infer.rank, core.infer.top_down, ...) carrying
// the links each step labeled as attributes — the trace-side view of
// the per-step metrics. With Options.Sanitize it takes ds (see there).
func InferCtx(ctx context.Context, ds *paths.Dataset, opts Options) *Result {
	opts = opts.withDefaults()
	ctx, run := trace.StartPhase(ctx, "core.infer")
	defer run.End(inferDuration, nil)
	run.Span.SetAttrInt("paths", int64(len(ds.Paths)))

	in := indexCorpus(ctx, ds, opts)
	inferPoisoned.Add(uint64(in.poisoned))
	run.Span.SetAttrInt("poisoned_paths", int64(in.poisoned))

	res := InferIndexed(ctx, in.ix, in.rank, in.clique, opts)
	res.PoisonedPaths = in.poisoned
	res.Dataset = in.kept
	res.SanitizeStats = in.sanStats
	return res
}

// stager runs pipeline steps as timed phases: one span, one
// asrank_infer_step_duration_seconds observation and — for the steps
// that label links — one links-labeled count per step. labeled is the
// inferencer's label counter (nil for the corpus stages, which label
// nothing); the seen watermark attributes each new label to the stage
// that made it.
type stager struct {
	ctx     context.Context
	labeled *int
	seen    int
}

// run executes fn as the stage named step. spanName is a literal at
// every call site so the obsnames analyzer can vet it.
func (st *stager) run(spanName, step string, fn func()) {
	_, ph := trace.StartPhase(st.ctx, spanName)
	fn()
	if st.labeled != nil && *st.labeled > st.seen {
		n := *st.labeled - st.seen
		inferStepLinks.With(step).Add(uint64(n))
		ph.Span.SetAttrInt("links_labeled", int64(n))
		st.seen = *st.labeled
	}
	ph.End(inferStepDuration.With(step), nil)
}

// indexed is what steps 1–4 leave: the index InferIndexed reads, the
// ranking and clique taken from its ranked layer, and the post-step-4
// corpus beside the number of rows step 4 discarded.
type indexed struct {
	ix           *CorpusIndex
	rank, clique []uint32
	kept         *paths.Dataset
	poisoned     int
	sanStats     paths.SanitizeStats
}

// indexCorpus runs steps 1–4, the only stages that touch the corpus
// itself. All four are functions of a path's hops, so each distinct hop
// sequence is folded once. Their metric stages label no links.
func indexCorpus(ctx context.Context, ds *paths.Dataset, opts Options) indexed {
	ix, ds, groups, sanStats := foldAtBirth(ctx, ds, opts)
	in := indexed{ix: ix, sanStats: sanStats}
	stages := stager{ctx: ctx}

	// Step 2: ranking.
	stages.run("core.infer.rank", "rank", func() { in.rank = ix.Rank() })

	// Step 3: clique.
	stages.run("core.infer.clique", "clique", func() {
		in.clique = CliqueFromIndex(ix, in.rank, opts)
	})
	cliqueSet := make(map[uint32]bool, len(in.clique))
	for _, c := range in.clique {
		cliqueSet[c] = true
	}

	// Step 4: discard poisoned paths — those where a non-clique AS
	// appears between two clique members, evidence of poisoning or a
	// route leak that would corrupt top-down inference. The kept layer
	// was folded over every sequence, before there was a clique to test
	// them against: kept = ranked − poisoned, so the few poisoned ones
	// are folded back out. The rows are filtered by their group, which
	// leaves the kept corpus grouped.
	stages.run("core.infer.poison", "poison", func() {
		in.kept = groups.Filter(ds, func(hops []uint32) bool {
			if poisoned(hops, cliqueSet) {
				ix.AddKept(hops, -1)
				return false
			}
			return true
		})
	})
	in.poisoned = len(ds.Paths) - len(in.kept.Paths)
	return in
}

// foldAtBirth runs step 1 — or, over a caller's sanitized corpus, only
// its grouping by hop sequence — with the index folding beside it: the
// pass hands each sequence to a feed as it is born, and two folders
// drain the feed into both layers at once, +1 per sequence: one folds
// the hop contexts (foldHops), each probed once for the two layers, the
// other the path ends (foldEnds). Each first sizes its largest table by
// the number of groups the pass announces it was handed (Feed.SizeHint):
// no second pass over the rows, and no table regrown from empty.
// Inference reads key presence and the derived distinct-neighbour
// counts only, so +1 per sequence builds the index a +1 per row would
// (DESIGN.md §5) — the rule the streaming engine folds by. The grouping it returns is the pass's own — never
// the one a caller's dataset carries — so step 4 compacts it in place.
//
// A caller's corpus loses its rows holding AS 0 first: the number is
// reserved (RFC 7607), step 1 drops it, and the index keeps it as the
// first-hop sentinel.
//
// The three tasks go through the pool one chunk each, claimed in order:
// with three workers they all run side by side; with two, step 1 and
// the hop folder start together and whichever ends first folds the
// ends; with one they run in order, the folders finding the feed
// already closed.
//
// The "index" stage measures what step 1 did not hide: it starts where
// step 1 ends, on the goroutine that ran it, and ends when both folders
// have drained.
func foldAtBirth(ctx context.Context, ds *paths.Dataset, opts Options) (*CorpusIndex, *paths.Dataset, *paths.Groups, paths.SanitizeStats) {
	var (
		ix       = NewCorpusIndex()
		feed     = paths.NewFeed()
		groups   *paths.Groups
		sanStats paths.SanitizeStats
		index    trace.Phase
		foldMs   [2]float64 // each folder's time in its task
		failed   any
	)
	stepOne := func() {
		// A pass that panics must still release the folder; the panic
		// is re-raised on the caller's goroutine, where it was raised
		// before step 1 moved into the pool.
		defer feed.Close()
		defer func() { failed = recover() }()
		if opts.Sanitize {
			sctx, ph := trace.StartPhase(ctx, "core.infer.sanitize")
			ds, sanStats, groups = paths.SanitizeCtx(sctx, ds, paths.SanitizeOptions{}, feed)
			ph.End(inferStepDuration.With("sanitize"), nil)
		} else {
			ds = withoutASZero(ds)
			groups = paths.GroupByHopsFeed(ds, feed)
		}
		_, index = trace.StartPhase(ctx, "core.infer.index")
	}
	pool.ChunksCtx(ctx, 0, 3, 1, func(ctx context.Context, lo, hi int) {
		for task := lo; task < hi; task++ {
			switch task {
			case 0:
				stepOne()
			case 1:
				_, ph := trace.StartPhase(ctx, "core.infer.index.fold")
				ix.sizeHops(feed.SizeHint())
				feed.Each(func(hops []uint32) { ix.foldHops(hops, 1, 1) })
				ph.End(nil, &foldMs[0])
			case 2:
				_, ph := trace.StartPhase(ctx, "core.infer.index.fold_ends")
				ix.sizeEnds(feed.SizeHint())
				feed.Each(func(hops []uint32) { ix.foldEnds(hops, 1, 1) })
				ph.End(nil, &foldMs[1])
			}
		}
	})
	if failed != nil {
		panic(failed)
	}
	index.Span.SetAttrInt("sequences", int64(len(groups.Hops)))
	index.Span.SetAttrInt("triples", int64(len(ix.triples)))
	index.Span.SetAttrInt("links", int64(len(ix.links)))
	index.Span.SetAttrInt("transit_pairs", int64(len(ix.transitPair)))
	index.Span.SetAttrInt("fold_busy_ms", int64(foldMs[0]))
	index.Span.SetAttrInt("fold_ends_busy_ms", int64(foldMs[1]))
	index.End(inferStepDuration.With("index"), nil)
	return ix, ds, groups, sanStats
}

// withoutASZero returns ds, or a copy of it without the rows that hold
// AS 0 when it has any.
func withoutASZero(ds *paths.Dataset) *paths.Dataset {
	holds := func(p paths.Path) bool { return slices.Contains(p.ASNs, 0) }
	if !slices.ContainsFunc(ds.Paths, holds) {
		return ds
	}
	return &paths.Dataset{Paths: slices.DeleteFunc(slices.Clone(ds.Paths), holds)}
}

// InferIndexed runs inference over an already-built corpus index with a
// precomputed ranking and clique: the intra-clique p2p labeling,
// provider-less detection, and steps 5–9, reading only the index's kept
// layer. It is the shared engine of the batch pipeline and the
// streaming engine — both execute this exact code over identical
// aggregates, which is the heart of the incremental==batch equivalence
// argument (DESIGN.md §15).
//
// rank must cover every AS of the index — ix.Rank() does — and
// InferIndexed panics naming the first kept-layer AS it does not. rank
// and clique are copied into the Result; TransitDegree and Degree
// snapshot the index's current ranked-layer metrics.
func InferIndexed(ctx context.Context, ix *CorpusIndex, rank, clique []uint32, opts Options) *Result {
	return inferIndexed(ctx, ix, rank, clique, opts).res
}

// inferIndexed is InferIndexed returning the spent inferencer, whose
// guard counts the package's tests and benchmarks read.
func inferIndexed(ctx context.Context, ix *CorpusIndex, rank, clique []uint32, opts Options) *inferencer {
	opts = opts.withDefaults()
	res := &Result{
		Rank:          append([]uint32(nil), rank...),
		Clique:        append([]uint32(nil), clique...),
		TransitDegree: ix.TransitDegrees(),
		Degree:        ix.Degrees(),
	}
	inferCliqueSize.Set(float64(len(res.Clique)))
	if root := trace.FromContext(ctx); root != nil {
		root.SetAttrInt("clique_size", int64(len(res.Clique)))
	}

	// The dense build and the write-back around the labelling stages
	// label nothing themselves.
	var inf *inferencer
	frame := stager{ctx: ctx}
	frame.run("core.infer.build", "build", func() { inf = newInferencer(ix, opts, res) })
	stages := stager{ctx: ctx, labeled: &inf.labeled}
	stages.run("core.infer.clique_p2p", "clique-p2p", inf.cliqueP2P)
	if !opts.DisableProviderless {
		stages.run("core.infer.providerless", "providerless", inf.detectProviderless)
	}
	stages.run("core.infer.top_down", "top-down", inf.topDown)          // step 5
	stages.run("core.infer.vp", "vp", inf.vpPass)                       // step 6
	stages.run("core.infer.stub_clique", "stub-clique", inf.stubClique) // step 7
	if !opts.DisableFold {
		stages.run("core.infer.fold", "fold", inf.fold) // step 8
	}
	stages.run("core.infer.peer_default", "peer-default", inf.peerRest) // step 9
	frame.run("core.infer.materialize", "materialize", inf.materialize)
	return inf
}
