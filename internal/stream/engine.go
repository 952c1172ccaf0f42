// Package stream is the incremental inference engine: a live RIB fed
// by collector route events (announce / withdraw per vantage point),
// folded continuously into the same refcounted corpus aggregates the
// batch pipeline reads, and committed on demand into immutable epoch
// snapshots.
//
// The equivalence contract — proven by internal/streamtest's
// differential harness — is that after any sequence of route events,
// Commit produces a warehouse.Snapshot bit-identical to running the
// full batch pipeline (sanitize → 11-step inference → cone crediting →
// snapshot composition) over a corpus holding exactly the currently
// announced routes. The argument has three legs:
//
//  1. The corpus aggregates (core.CorpusIndex) are commutative
//     refcounts: applying announce/withdraw deltas in any order leaves
//     the same aggregate state as folding the equivalent batch corpus,
//     so core.InferIndexed — the one shared engine both paths execute
//     — sees identical inputs.
//  2. Cone credits (cone.PairCounts) are commutative refcounts of the
//     same crediting walk the batch engine shards, read at their final
//     state when the slab is built, so within-epoch event order cannot
//     matter.
//  3. The dirty-region rule is conservative: a path's poisoned flag is
//     a function of the path and the clique, so a changed clique moves
//     exactly the paths whose flag flipped into or out of the kept
//     layer, through the same ±1 mutators a route event uses; of the
//     paths that stay kept, re-crediting is confined to those
//     containing a link whose inferred relationship changed — and a
//     path's credit walk reads only its own links' relationships, so
//     unaffected paths contribute identically by construction.
package stream

import (
	"context"
	"net/netip"
	"slices"
	"sync"
	"time"

	"github.com/asrank-go/asrank/internal/asindex"
	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/oplog"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/trace"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// Options configures an Engine.
type Options struct {
	// IXPASes is forwarded to per-path sanitization (step 1).
	IXPASes map[uint32]bool
	// Infer configures the 11-step inference shared with the batch
	// path. Sanitize is ignored: the engine sanitizes per event.
	Infer core.Options
	// Journal, when non-nil, receives one stream.commit event per
	// epoch carrying the CommitReport's headline fields. Journaling is
	// instrumentation only: it never influences what the engine
	// computes.
	Journal *oplog.Journal
}

// Stats counts what the engine has done. How much of the table an epoch
// really walked is read off its CommitReport (paths re-walked against
// live entries), which the differential harness asserts on.
type Stats struct {
	Epochs       int // Commit calls
	FullRebuilds int // DecisionRebuild epochs: the first, and each whose clique changed (every poisoned flag re-evaluated)
	Entries      int // live distinct paths
	RIBRoutes    int // live (collector, vp, prefix) routes
}

// ribKey identifies one vantage point's route to one prefix — the unit
// BGP announce/withdraw semantics operate on.
type ribKey struct {
	collector string
	vp        uint32
	prefix    netip.Prefix
}

// entryKey identifies one distinct corpus row: Sanitize collapses
// duplicate (collector, prefix, cleaned-path) rows, so the engine
// refcounts them.
type entryKey struct {
	collector string
	prefix    netip.Prefix
	hops      string // cleaned ASNs, packed big-endian
}

// entry is one distinct sanitized path currently announced by refs
// vantage-point routes.
type entry struct {
	key      entryKey
	asns     []uint32 // key.hops, unpacked
	refs     int32    // int32 keeps entry in the 96-byte size class (one per distinct path)
	poisoned bool     // under the last committed clique
	credited bool     // currently counted in the cone credit table
}

// Engine is the incremental inference state machine. Announce and
// Withdraw fold route events into the corpus aggregates; Commit runs
// the affected region of the inference and returns the epoch snapshot.
// All methods are safe for concurrent use; Commit serializes against
// event ingestion.
type Engine struct {
	mu sync.Mutex
	// opts is immutable after New and deliberately NOT guarded:
	// Announce reads opts.IXPASes before taking the lock.
	opts Options

	//asrank:guardedby mu
	ix *core.CorpusIndex
	//asrank:guardedby mu
	rib map[ribKey]*entry // nil value: announced but dropped by sanitize
	//asrank:guardedby mu
	entries map[entryKey]*entry
	//asrank:guardedby mu
	linkIndex map[paths.Link]map[*entry]struct{} // kept entries by adjacency

	//asrank:guardedby mu
	pc *cone.PairCounts
	//asrank:guardedby mu
	pfxRef map[pfxKey]int
	//asrank:guardedby mu
	pfxCount map[uint32]int

	// Last committed epoch state.

	//asrank:guardedby mu
	clique []uint32
	//asrank:guardedby mu
	cliqueSet map[uint32]bool
	//asrank:guardedby mu
	rels map[paths.Link]topology.Relationship

	//asrank:guardedby mu
	pendingCredit map[*entry]struct{} // kept entries not yet credited
	//asrank:guardedby mu
	uncredit [][]uint32 // ex-credited paths to remove under the old relationships

	//asrank:guardedby mu
	stats Stats

	// Provenance: the trailing commit reports (/debug/epochs) and the
	// between-commit event accounting that feeds them.

	//asrank:guardedby mu
	reports []CommitReport
	//asrank:guardedby mu
	pendingEvents int // route events folded since the last commit
	//asrank:guardedby mu
	firstPending time.Time // arrival of the oldest unserved event
}

type pfxKey struct {
	origin uint32
	prefix netip.Prefix
}

// New returns an empty engine.
func New(opts Options) *Engine {
	return &Engine{
		opts:          opts,
		ix:            core.NewCorpusIndex(),
		rib:           make(map[ribKey]*entry),
		entries:       make(map[entryKey]*entry),
		linkIndex:     make(map[paths.Link]map[*entry]struct{}),
		pc:            cone.NewPairCounts(),
		pfxRef:        make(map[pfxKey]int),
		pfxCount:      make(map[uint32]int),
		rels:          map[paths.Link]topology.Relationship{},
		pendingCredit: make(map[*entry]struct{}),
	}
}

func hopsKey(asns []uint32) string {
	b := make([]byte, 0, len(asns)*4)
	for _, a := range asns {
		b = append(b, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
	}
	return string(b)
}

// Announce folds one route announcement: vantage point vp at the named
// collector now reaches prefix via asns (raw wire hops; the engine
// sanitizes). A re-announcement for the same (collector, vp, prefix)
// implicitly withdraws the previous route, per BGP semantics.
func (e *Engine) Announce(collector string, vp uint32, prefix netip.Prefix, asns []uint32) {
	cleaned, keep := paths.SanitizeOne(asns, e.opts.IXPASes)

	e.mu.Lock()
	defer e.mu.Unlock()
	e.noteEventLocked()
	rk := ribKey{collector: collector, vp: vp, prefix: prefix}
	old, had := e.rib[rk]
	if !keep {
		// Announced but not corpus-worthy: remember the slot so a later
		// withdraw is a no-op instead of a miss.
		if had && old != nil {
			e.releaseLocked(old)
		}
		e.rib[rk] = nil
		return
	}
	ek := entryKey{collector: collector, prefix: prefix, hops: hopsKey(cleaned)}
	if had && old != nil {
		if old.key == ek {
			return // same route re-announced
		}
		e.releaseLocked(old)
	}
	e.rib[rk] = e.acquireLocked(ek, cleaned)
}

// Withdraw folds one route withdrawal. Withdrawing a prefix the
// vantage point never announced is a no-op, per BGP semantics.
func (e *Engine) Withdraw(collector string, vp uint32, prefix netip.Prefix) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.noteEventLocked()
	rk := ribKey{collector: collector, vp: vp, prefix: prefix}
	old, had := e.rib[rk]
	if !had {
		return
	}
	delete(e.rib, rk)
	if old != nil {
		e.releaseLocked(old)
	}
}

// noteEventLocked accounts one route event for the next CommitReport:
// the event count and the arrival time of the oldest unserved event
// (the update-to-serve watermark's far end). Instrumentation only.
func (e *Engine) noteEventLocked() {
	e.pendingEvents++
	if e.firstPending.IsZero() {
		//lint:ignore nodeterminismleak watermark timestamp feeds only the commit report's latency figure, never inference
		e.firstPending = time.Now()
	}
}

// acquireLocked bumps (or creates) the distinct-path entry for ek,
// whose unpacked hops are asns.
func (e *Engine) acquireLocked(ek entryKey, asns []uint32) *entry {
	if en, ok := e.entries[ek]; ok {
		en.refs++
		return en
	}
	en := &entry{key: ek, asns: asns, refs: 1}
	e.entries[ek] = en
	e.ix.AddPath(asns, 1)
	en.poisoned = core.Poisoned(asns, e.cliqueSet)
	if !en.poisoned {
		e.keepLocked(en)
	}
	return en
}

// releaseLocked drops one reference, retiring the entry at zero.
func (e *Engine) releaseLocked(en *entry) {
	en.refs--
	if en.refs > 0 {
		return
	}
	delete(e.entries, en.key)
	e.ix.AddPath(en.asns, -1)
	if !en.poisoned {
		e.unkeepLocked(en)
	}
}

// keepLocked admits an entry to the kept (post-discard) layer: corpus
// aggregates, link index, prefix counts, and the credit queue.
func (e *Engine) keepLocked(en *entry) {
	e.ix.AddKept(en.asns, 1)
	for i := 0; i+1 < len(en.asns); i++ {
		l := paths.NewLink(en.asns[i], en.asns[i+1])
		set, ok := e.linkIndex[l]
		if !ok {
			set = make(map[*entry]struct{})
			e.linkIndex[l] = set
		}
		set[en] = struct{}{}
	}
	if en.key.prefix.IsValid() {
		k := pfxKey{origin: en.asns[len(en.asns)-1], prefix: en.key.prefix}
		e.pfxRef[k]++
		if e.pfxRef[k] == 1 {
			e.pfxCount[k.origin]++
		}
	}
	e.pendingCredit[en] = struct{}{}
}

// unkeepLocked reverses keepLocked. A credited entry is queued for
// uncrediting under the relationships it was credited with.
func (e *Engine) unkeepLocked(en *entry) {
	e.ix.AddKept(en.asns, -1)
	for i := 0; i+1 < len(en.asns); i++ {
		l := paths.NewLink(en.asns[i], en.asns[i+1])
		delete(e.linkIndex[l], en)
		if len(e.linkIndex[l]) == 0 {
			delete(e.linkIndex, l)
		}
	}
	if en.key.prefix.IsValid() {
		k := pfxKey{origin: en.asns[len(en.asns)-1], prefix: en.key.prefix}
		e.pfxRef[k]--
		if e.pfxRef[k] == 0 {
			delete(e.pfxRef, k)
			e.pfxCount[k.origin]--
			if e.pfxCount[k.origin] == 0 {
				delete(e.pfxCount, k.origin)
			}
		}
	}
	if en.credited {
		en.credited = false
		e.uncredit = append(e.uncredit, en.asns)
	} else {
		delete(e.pendingCredit, en)
	}
}

// reflagLocked adopts a changed clique: every entry's poisoned flag is
// re-evaluated, and the entries whose flag flipped cross the step-4 cut
// through keepLocked/unkeepLocked. The kept layer and the credit table
// are refcounts, so the result is what folding the new kept set from
// scratch would give.
func (e *Engine) reflagLocked(clique []uint32) {
	e.clique = append([]uint32(nil), clique...)
	e.cliqueSet = make(map[uint32]bool, len(clique))
	for _, m := range clique {
		e.cliqueSet[m] = true
	}
	for _, en := range e.entries {
		p := core.Poisoned(en.asns, e.cliqueSet)
		if p == en.poisoned {
			continue
		}
		en.poisoned = p
		if p {
			e.unkeepLocked(en)
		} else {
			e.keepLocked(en)
		}
	}
}

// Commit converges the current RIB into one epoch: re-runs the
// affected region of the 11-step inference over the refcounted
// aggregates, builds the cone slab from the credit table, and composes
// the immutable columnar snapshot — bit-identical to a batch run over
// the same routes. The returned snapshot is immutable and safe to
// publish.
func (e *Engine) Commit(ctx context.Context) *warehouse.Snapshot {
	snap, _ := e.CommitEpoch(ctx)
	return snap
}

// CommitEpoch is Commit plus provenance: it also returns the epoch's
// CommitReport, already appended to the /debug/epochs ring and (when a
// journal is configured) journaled as a stream.commit event. The
// report is instrumentation about the commit, never an input to it.
func (e *Engine) CommitEpoch(ctx context.Context) (*warehouse.Snapshot, CommitReport) {
	ctx, total := trace.StartPhase(ctx, "stream.commit")
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Epochs++

	rep := CommitReport{
		Epoch:  e.stats.Epochs,
		Events: e.pendingEvents,
		Slab:   SlabFull,
	}
	e.pendingEvents = 0
	// The watermark clock keeps running until the snapshot is composed
	// (update-to-serve, not update-to-commit-start); events arriving
	// during the commit are blocked on mu, so the pending marker can be
	// claimed up front.
	firstPendingAt := e.firstPending
	e.firstPending = time.Time{}

	// Steps 2–3 always re-run: rank and clique are global, and the
	// clique decides which paths step 4 discards. A changed clique is a
	// larger dirty set, not another algorithm: the entries whose poisoned
	// flag flipped leave or enter the kept layer exactly as a withdrawn
	// or announced route would.
	_, ph := trace.StartPhase(ctx, "stream.commit.rank_clique")
	rank := e.ix.Rank()
	clique := core.CliqueFromIndex(e.ix, rank, e.opts.Infer)
	cliqueChanged := !slices.Equal(clique, e.clique)
	if cliqueChanged {
		e.reflagLocked(clique)
	}
	switch {
	case e.stats.Epochs == 1:
		// Nothing to be incremental against — even when nothing is
		// announced yet and the clique is still the empty one.
		rep.Decision, rep.Reason = DecisionRebuild, ReasonInitial
	case cliqueChanged:
		rep.Decision, rep.Reason = DecisionRebuild, ReasonCliqueChurn
	default:
		rep.Decision, rep.Reason = DecisionIncremental, ReasonSteady
	}
	if rep.Decision == DecisionRebuild {
		e.stats.FullRebuilds++
	}
	ph.End(commitPhaseDuration.With("rank_clique"), &rep.Phases.RankClique)

	// Steps 5–9 over the kept-layer aggregates — the same engine the
	// batch path executes.
	ictx, ph := trace.StartPhase(ctx, "stream.commit.infer")
	res := core.InferIndexed(ictx, e.ix, rank, clique, e.opts.Infer)
	ph.End(commitPhaseDuration.With("infer"), &rep.Phases.Infer)
	rep.Links, rep.ASes = len(res.Rels), len(rank)

	// Cone crediting. Paths that left the kept layer (withdrawn, or newly
	// poisoned) are removed under the relationships they were credited
	// with; credited paths touching a link whose relationship changed are
	// re-walked; everything else keeps its contribution (leg 3 of the
	// package contract).
	_, ph = trace.StartPhase(ctx, "stream.commit.credit")
	rep.UncreditedPaths = len(e.uncredit)
	for _, asns := range e.uncredit {
		e.pc.Credit(e.rels, asns, -1)
	}
	e.uncredit = nil
	affected := make(map[*entry]struct{})
	dirty := func(l paths.Link) {
		rep.DirtyLinks++
		for en := range e.linkIndex[l] {
			if en.credited {
				affected[en] = struct{}{}
			}
		}
	}
	for l, r := range res.Rels {
		if old, ok := e.rels[l]; !ok || old != r {
			dirty(l)
		}
	}
	for l := range e.rels {
		if _, ok := res.Rels[l]; !ok {
			dirty(l)
		}
	}
	rep.RecreditedPaths = len(affected)
	for en := range affected {
		e.pc.Credit(e.rels, en.asns, -1)
		e.pc.Credit(res.Rels, en.asns, 1)
	}
	rep.NewlyCredited = len(e.pendingCredit)
	for en := range e.pendingCredit {
		e.pc.Credit(res.Rels, en.asns, 1)
		en.credited = true
	}
	e.pendingCredit = make(map[*entry]struct{})
	e.rels = res.Rels
	ph.End(commitPhaseDuration.With("credit"), &rep.Phases.Credit)

	// The serving index is the sorted endpoint set of the labeled
	// links — identical to what cone.NewRelations interns batch-side.
	asns := make([]uint32, 0, 2*len(res.Rels))
	for l := range res.Rels {
		//lint:ignore nodeterminismleak asindex.New sorts and dedups its input, so collection order cannot leak
		asns = append(asns, l.A, l.B)
	}
	idx := asindex.New(asns)

	_, ph = trace.StartPhase(ctx, "stream.commit.slab")
	cones := cone.FromSlab(idx, e.pc.Slab(idx))
	ph.End(commitPhaseDuration.With("slab"), &rep.Phases.Slab)

	_, ph = trace.StartPhase(ctx, "stream.commit.compose")
	snap := warehouse.Compose(warehouse.ComposeInput{
		Cones:         cones,
		TransitDegree: res.TransitDegree,
		Degree:        res.Degree,
		PrefixCounts:  e.pfxCount,
		Rels:          res.Rels,
		Steps:         res.Steps,
		Clique:        clique,
		PathCount:     e.ix.PathCount(),
	})
	ph.End(commitPhaseDuration.With("compose"), &rep.Phases.Compose)

	rep.Entries = len(e.entries)
	rep.RIBRoutes = len(e.rib)
	if !firstPendingAt.IsZero() {
		trace.PhaseSince(firstPendingAt).End(nil, &rep.WatermarkMillis)
	}
	total.End(nil, &rep.TotalMillis)

	e.reports = append(e.reports, rep)
	if len(e.reports) > maxReports {
		e.reports = append(e.reports[:0], e.reports[1:]...)
	}
	e.opts.Journal.Info(ctx, "stream.commit",
		oplog.Int("epoch", int64(rep.Epoch)),
		oplog.String("decision", rep.Decision),
		oplog.String("reason", rep.Reason),
		oplog.String("slab", rep.Slab),
		oplog.Int("events", int64(rep.Events)),
		oplog.Int("dirty_links", int64(rep.DirtyLinks)),
		oplog.Int("recredited_paths", int64(rep.RecreditedPaths)),
		oplog.Int("links", int64(rep.Links)),
		oplog.Int("ases", int64(rep.ASes)),
		oplog.Int("total_ms", int64(rep.TotalMillis)),
		oplog.Int("watermark_ms", int64(rep.WatermarkMillis)))

	return snap, rep
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.Entries = len(e.entries)
	s.RIBRoutes = len(e.rib)
	return s
}
