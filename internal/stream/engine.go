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
//     refcounts whose key sets — all that core.InferIndexed, the one
//     shared engine both paths execute, ever reads — are a function of
//     the set of distinct hop sequences announced. The engine folds
//     each sequence once, when its first row appears, and out when its
//     last goes; batch folds it with its row count; the counts differ
//     and the inputs inference sees do not.
//  2. Cone credits (cone.PairCounts) are commutative refcounts of the
//     same crediting walk the batch engine shards, read at their final
//     state — and only as count > 0 — when the cones are built, so
//     neither within-epoch event order nor crediting a sequence once
//     for all its rows can matter. Between any two calls the table
//     holds exactly the walks of every live kept sequence under the
//     relationships of the last commit: a sequence's walk is added as
//     it enters the kept layer and removed as it leaves, by the same
//     two mutators whether a route event or a clique change moved it.
//  3. A sequence's credit walk reads only its own links'
//     relationships, so when a commit adopts new relationships the
//     sequences whose contribution changes are exactly the kept ones
//     crossing a link whose relationship changed — the link index
//     finds them, and re-walking them restores leg 2's invariant under
//     the new relationships.
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
	// Journal, when non-nil, receives one stream.commit event per
	// epoch whose one attribute, report, is the whole CommitReport —
	// the only store of past reports, which /debug/epochs reads.
	// Journaling is instrumentation only: it never influences what the
	// engine computes.
	Journal *oplog.Journal
}

// Stats counts what the engine has done and what it holds. RIBRoutes and
// Entries count what grows with the feed: routes, each one int32 slot of
// its session's column, and rows, which mostly take no space of their
// own (the engine derives them from the columns). How much of the table
// an epoch really walked is read off its CommitReport (sequences
// re-walked against live sequences), which the differential harness
// asserts on.
type Stats struct {
	Epochs       int // Commit calls
	FullRebuilds int // DecisionRebuild epochs: the first, and each whose clique changed (every poisoned flag re-evaluated)
	Entries      int // live corpus rows: distinct (collector, prefix, hop sequence)
	RIBRoutes    int // live (collector, vp, prefix) routes, sanitizer-dropped ones included
	Sequences    int // live distinct hop sequences
	LinkIndex    int // link-index memberships: (kept link, sequence crossing it) pairs
}

// A column slot holds a route's sequence id or one of two sentinels.
const (
	// dropped is a route sanitize discarded: the slot is remembered so
	// the route's withdrawal is not a miss, but it carries no row.
	dropped int32 = -1
	// noRoute is a slot no route holds.
	noRoute int32 = -2
)

// session is one (collector, vantage point) pair's routes: a column
// indexed by the prefix-table id of each route's PrefixKey.Route form
// (invalid prefixes stay distinct routes), holding the route's sequence
// id, dropped or noRoute — the unit BGP announce/withdraw semantics
// operate on. A session lives from its first route to the withdrawal of
// its last; a retired slot holds no column and waits on the free list
// for the next session opened.
type session struct {
	collector uint32 // Engine.collectors id
	vp        uint32
	routes    []int32 // by prefix id; shorter than the prefix table until a route needs the room; nil in a retired slot
	live      int32   // slots of routes holding a route, dropped ones included
}

// rowKey identifies one corpus row. Sanitize collapses duplicate
// (collector, prefix, cleaned-path) rows under the same prefix key, so
// a row lives while some route announces it. A route is the row's
// native one when its prefix is valid and its cleaned hops lead with its
// own vantage point, as every route off the wire does: a row has at most
// one, in column (collector, hops[0]) at the row's prefix id. Every
// other route is foreign — a vantage point relaying another's hops
// verbatim, or any invalid prefix form — and is counted per row.
type rowKey struct {
	prefix    uint32 // Engine.prefixes id of the FlatPrefix form
	collector uint32 // Engine.collectors id
	seq       int32  // Engine.seqs id
}

// prefixSlot is one id of the engine's prefix table. A prefix takes up
// to three forms. The Route and flat forms differ only for an invalid
// prefix, whose Route form is its own route but whose flat form is the
// one {Bits: -1} row key, so a Route form holds a reference on the flat
// form's id. The flat and canonical forms (paths.CanonicalPrefix, the
// key the prefix counts follow, as cone.PrefixCounts does) differ only
// for a valid prefix written IPv4-mapped or with host bits set, whose
// flat form holds a reference on the canonical form's id. A row needs
// no reference of its own: some route of the row's holds one.
type prefixSlot struct {
	key   paths.PrefixKey
	flat  uint32 // id of key's FlatPrefix form: the slot's own id but for an invalid Route form
	canon uint32 // id of key's canonical form: the slot's own id when key is one
	refs  int32  // routes in the id's column slot of some session, plus forms whose flat or canonical form it is; 0 marks a released id
}

// sequence is what the engine knows of one distinct cleaned hop
// sequence beyond its hops (Engine.seqs holds those): everything that is
// a function of hops alone, held once however many rows carry it.
type sequence struct {
	rows     int32 // live rows carrying the hops; 0 marks a released id
	poisoned bool  // under the last committed clique
}

// Engine is the incremental inference state machine. Announce and
// Withdraw fold route events into the corpus aggregates; Commit runs
// the affected region of the inference and returns the epoch snapshot.
// All methods are safe for concurrent use; Commit serializes against
// event ingestion.
//
// The route state is dense columns, one per (collector, vantage point)
// session, indexed by prefix-table id and holding sequence ids, beside
// seqs (sequence ⇄ id) with held (id → rows carrying it, flags). The
// prefix table holds each distinct prefix once however many routes name
// it and frees the id with the last of them, so no column holds a freed
// id and the columns never outgrow the table. A row has no entry of its
// own: it lives while its native route is in its column or foreign
// counts some other route announcing it (see rowKey). The corpus index,
// the link index and the credit table follow a sequence's birth and
// death — first row appears, last row goes — and only the kept-row count
// and the prefix counts follow rows.
type Engine struct {
	mu   sync.Mutex
	opts Options // immutable after New

	//asrank:guardedby mu
	ix *core.CorpusIndex
	//asrank:guardedby mu
	collectors map[string]uint32 // name → dense id; a deployment has a handful, none is retired
	//asrank:guardedby mu
	prefixIDs map[paths.PrefixKey]uint32 // live id of each prefix form
	//asrank:guardedby mu
	prefixes []prefixSlot // by id
	//asrank:guardedby mu
	freePrefixes []uint32 // released ids
	//asrank:guardedby mu
	sessionIDs map[uint64]int32 // collector id << 32 | vp → index into sessions, for live sessions only
	//asrank:guardedby mu
	sessions []session
	//asrank:guardedby mu
	freeSessions []int32 // retired indexes into sessions
	//asrank:guardedby mu
	foreign map[rowKey]int32 // foreign routes announcing the row, when any
	//asrank:guardedby mu
	routes int // live routes, dropped ones included
	//asrank:guardedby mu
	rows int // live rows
	//asrank:guardedby mu
	seqs *paths.Sequences
	//asrank:guardedby mu
	held []sequence // by seqs id
	//asrank:guardedby mu
	linkIndex map[paths.Link][]int32 // kept sequences crossing each link, each once
	//asrank:guardedby mu
	linkMembers int // memberships over all of linkIndex

	//asrank:guardedby mu
	pc *cone.PairCounts // every live kept sequence's walk under rels
	//asrank:guardedby mu
	keptRows int // rows of non-poisoned sequences: the snapshot's PathCount
	//asrank:guardedby mu
	pfxRef map[uint64]int32 // kept rows announcing (canonical prefix id << 32 | origin)
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
	labels []core.Label // rels in link order

	//asrank:guardedby mu
	stats Stats

	// Provenance: the between-commit event accounting that feeds each
	// CommitReport.

	//asrank:guardedby mu
	pendingEvents int // route events folded since the last commit
	//asrank:guardedby mu
	firstPending time.Time // arrival of the oldest unserved event
	//asrank:guardedby mu
	entered int // sequences that entered the kept layer since the last commit
	//asrank:guardedby mu
	left int // sequences that left it
}

// New returns an empty engine.
func New(opts Options) *Engine {
	return &Engine{
		opts:       opts,
		ix:         core.NewCorpusIndex(),
		collectors: make(map[string]uint32),
		prefixIDs:  make(map[paths.PrefixKey]uint32),
		sessionIDs: make(map[uint64]int32),
		foreign:    make(map[rowKey]int32),
		seqs:       paths.NewSequences(),
		linkIndex:  make(map[paths.Link][]int32),
		pc:         cone.NewPairCounts(),
		pfxRef:     make(map[uint64]int32),
		pfxCount:   make(map[uint32]int),
		rels:       map[paths.Link]topology.Relationship{},
	}
}

// Announce folds one route announcement: vantage point vp at the named
// collector now reaches prefix via asns (raw wire hops; the engine
// sanitizes). A re-announcement for the same (collector, vp, prefix)
// implicitly withdraws the previous route, per BGP semantics. The
// cleaned hops are the call's only allocation unless a table grows or
// the sequence is new.
//
//asrank:hotpath
func (e *Engine) Announce(collector string, vp uint32, prefix netip.Prefix, asns []uint32) {
	cleaned, keep := paths.SanitizeOne(asns)

	e.mu.Lock()
	defer e.mu.Unlock()
	e.noteEventLocked()
	c, ok := e.collectors[collector]
	if !ok {
		c = uint32(len(e.collectors))
		e.collectors[collector] = c
	}
	flat := paths.FlatPrefix(prefix)
	p := e.internPrefixLocked(flat.Route(prefix), flat, paths.FlatPrefix(paths.CanonicalPrefix(prefix)))
	ses := e.sessionLocked(c, vp, p)
	slot := &ses.routes[p]
	old := *slot
	if old == noRoute {
		e.prefixes[p].refs++ // the route's own
		e.routes++
		ses.live++
	}
	if !keep {
		if old >= 0 {
			e.releaseLocked(ses, p, old)
		}
		*slot = dropped
		return
	}
	id, fresh := e.seqs.Intern(cleaned, false)
	if fresh {
		e.bornLocked(id, cleaned)
	}
	if old >= 0 {
		if id == old {
			return // same route re-announced
		}
		e.releaseLocked(ses, p, old)
	}
	*slot = id
	e.acquireLocked(ses, p, id)
}

// Withdraw folds one route withdrawal. Withdrawing a prefix the
// vantage point never announced is a no-op, per BGP semantics.
//
//asrank:hotpath
func (e *Engine) Withdraw(collector string, vp uint32, prefix netip.Prefix) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.noteEventLocked()
	c, ok := e.collectors[collector]
	if !ok {
		return
	}
	p, ok := e.prefixIDs[paths.FlatPrefix(prefix).Route(prefix)]
	if !ok {
		return
	}
	s, ok := e.sessionIDs[uint64(c)<<32|uint64(vp)]
	if !ok {
		return
	}
	ses := &e.sessions[s]
	if int(p) >= len(ses.routes) || ses.routes[p] == noRoute {
		return
	}
	if old := ses.routes[p]; old != dropped {
		e.releaseLocked(ses, p, old)
	}
	ses.routes[p] = noRoute
	e.routes--
	e.releasePrefixLocked(p)
	ses.live--
	if ses.live == 0 {
		e.retireSessionLocked(s)
	}
}

// sessionLocked returns collector c's session with vantage point vp,
// opening it on its first route, in a retired slot if there is one, with
// a column long enough to hold prefix id p. A column grows to the prefix
// table's capacity, so it is reallocated only as often as the table is.
func (e *Engine) sessionLocked(c, vp, p uint32) *session {
	k := uint64(c)<<32 | uint64(vp)
	s, ok := e.sessionIDs[k]
	if !ok {
		if n := len(e.freeSessions); n > 0 {
			s, e.freeSessions = e.freeSessions[n-1], e.freeSessions[:n-1]
			e.sessions[s] = session{collector: c, vp: vp}
		} else {
			s = int32(len(e.sessions))
			e.sessions = append(e.sessions, session{collector: c, vp: vp})
		}
		e.sessionIDs[k] = s
	}
	ses := &e.sessions[s]
	if int(p) >= len(ses.routes) {
		grown := make([]int32, cap(e.prefixes))
		n := copy(grown, ses.routes)
		for i := n; i < len(grown); i++ {
			grown[i] = noRoute
		}
		ses.routes = grown
	}
	return ses
}

// retireSessionLocked closes session s, whose last route was just
// withdrawn: its column is dropped and its slot freed for the next
// session opened, so a feed whose vantage points come and go holds
// columns for the live ones only.
func (e *Engine) retireSessionLocked(s int32) {
	ses := &e.sessions[s]
	delete(e.sessionIDs, uint64(ses.collector)<<32|uint64(ses.vp))
	*ses = session{}
	e.freeSessions = append(e.freeSessions, s)
}

// internPrefixLocked returns the id of route, a prefix's Route form
// whose FlatPrefix form is flat and whose canonical form is canon,
// assigning one when no route holds it — with a reference on flat's id
// for an invalid prefix, or on canon's for a flat form that is not
// canonical. A fresh id holds no reference yet: the caller's new RIB
// route takes the first.
func (e *Engine) internPrefixLocked(route, flat, canon paths.PrefixKey) uint32 {
	if id, ok := e.prefixIDs[route]; ok {
		return id
	}
	var id uint32
	if n := len(e.freePrefixes); n > 0 {
		id, e.freePrefixes = e.freePrefixes[n-1], e.freePrefixes[:n-1]
	} else {
		id = uint32(len(e.prefixes))
		e.prefixes = append(e.prefixes, prefixSlot{})
	}
	e.prefixIDs[route] = id
	f, c := id, id
	switch {
	case route != flat:
		f = e.internPrefixLocked(flat, flat, canon)
		e.prefixes[f].refs++
		c = e.prefixes[f].canon
	case flat != canon:
		c = e.internPrefixLocked(canon, canon, canon)
		e.prefixes[c].refs++
	}
	e.prefixes[id] = prefixSlot{key: route, flat: f, canon: c}
	return id
}

// releasePrefixLocked drops one reference on prefix id, retiring the id
// at zero — and with it the reference it holds on its flat or its
// canonical form.
func (e *Engine) releasePrefixLocked(id uint32) {
	s := &e.prefixes[id]
	if s.refs--; s.refs > 0 {
		return
	}
	delete(e.prefixIDs, s.key)
	f, c := s.flat, s.canon
	*s = prefixSlot{}
	e.freePrefixes = append(e.freePrefixes, id)
	switch {
	case f != id:
		e.releasePrefixLocked(f)
	case c != id:
		e.releasePrefixLocked(c)
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

// bornLocked folds the sequence just interned under id into everything
// that follows sequences. It has no rows yet; the caller acquires the
// first.
func (e *Engine) bornLocked(id int32, hops []uint32) {
	if int(id) == len(e.held) {
		e.held = append(e.held, sequence{})
	}
	e.held[id] = sequence{poisoned: core.Poisoned(hops, e.cliqueSet)}
	e.ix.AddPath(hops, 1)
	if !e.held[id].poisoned {
		e.keepLocked(id)
	}
}

// rowOfLocked returns the row session ses's route to prefix id p
// announces with sequence id, and whether the route is the row's native
// one.
func (e *Engine) rowOfLocked(ses *session, p uint32, id int32) (rowKey, bool) {
	pfx := &e.prefixes[p]
	k := rowKey{prefix: pfx.flat, collector: ses.collector, seq: id}
	return k, pfx.key.IsValid() && e.seqs.Hops(id)[0] == ses.vp
}

// nativeHeldLocked reports whether row k's native route is live: the
// one slot it can be in holds the row's sequence.
func (e *Engine) nativeHeldLocked(k rowKey) bool {
	if !e.prefixes[k.prefix].key.IsValid() {
		return false
	}
	s, ok := e.sessionIDs[uint64(k.collector)<<32|uint64(e.seqs.Hops(k.seq)[0])]
	if !ok {
		return false
	}
	col := e.sessions[s].routes
	return int(k.prefix) < len(col) && col[k.prefix] == k.seq
}

// acquireLocked adds session ses's route to prefix id p, whose sequence
// id exists, to the row it announces; the first route creates the row.
func (e *Engine) acquireLocked(ses *session, p uint32, id int32) {
	k, native := e.rowOfLocked(ses, p, id)
	if native {
		if e.foreign[k] > 0 {
			return
		}
	} else {
		n := e.foreign[k] + 1
		e.foreign[k] = n
		if n > 1 || e.nativeHeldLocked(k) {
			return
		}
	}
	e.rows++
	s := &e.held[k.seq]
	s.rows++
	if !s.poisoned {
		e.countRowLocked(e.seqs.Hops(k.seq), k.prefix, 1)
	}
}

// releaseLocked drops session ses's route to prefix id p, still in its
// slot with sequence id, from the row it announces, retiring the row
// when no other route announces it — and, when that was the sequence's
// last row, the sequence.
func (e *Engine) releaseLocked(ses *session, p uint32, id int32) {
	k, native := e.rowOfLocked(ses, p, id)
	if native {
		if e.foreign[k] > 0 {
			return
		}
	} else {
		if n := e.foreign[k]; n > 1 {
			e.foreign[k] = n - 1
			return
		}
		delete(e.foreign, k)
		if e.nativeHeldLocked(k) {
			return
		}
	}
	e.rows--
	s, hops := &e.held[k.seq], e.seqs.Hops(k.seq)
	s.rows--
	if !s.poisoned {
		e.countRowLocked(hops, k.prefix, -1)
	}
	if s.rows > 0 {
		return
	}
	e.ix.AddPath(hops, -1)
	if !s.poisoned {
		e.unkeepLocked(k.seq)
	}
	*s = sequence{}
	e.seqs.Release(k.seq)
}

// countRowLocked moves one row of a kept sequence into (d = 1) or out of
// (d = -1) the two aggregates that follow rows: the kept-row count and
// the prefix count of the row's origin. Rows without a valid prefix
// weigh nothing there, as in cone.PrefixCounts. prefix is the row's
// flat prefix id, which no other prefix holds while the row lives; the
// count follows its canonical form, as cone.PrefixCounts does, so one
// routed prefix written several ways counts once.
func (e *Engine) countRowLocked(hops []uint32, prefix uint32, d int32) {
	e.keptRows += int(d)
	if !e.prefixes[prefix].key.IsValid() {
		return
	}
	origin := hops[len(hops)-1]
	k := uint64(e.prefixes[prefix].canon)<<32 | uint64(origin)
	n := e.pfxRef[k] + d
	if n > 0 {
		e.pfxRef[k] = n
		if n == 1 && d > 0 {
			e.pfxCount[origin]++
		}
		return
	}
	delete(e.pfxRef, k)
	e.pfxCount[origin]--
	if e.pfxCount[origin] == 0 {
		delete(e.pfxCount, origin)
	}
}

// keepLocked admits a sequence to the kept (post-discard) layer: corpus
// aggregates, link index, and the credit table under the committed
// relationships.
func (e *Engine) keepLocked(id int32) {
	hops := e.seqs.Hops(id)
	e.ix.AddKept(hops, 1)
	for i := 0; i+1 < len(hops); i++ {
		l := paths.NewLink(hops[i], hops[i+1])
		e.linkIndex[l] = append(e.linkIndex[l], id)
	}
	e.linkMembers += len(hops) - 1
	e.pc.Credit(e.rels, hops, 1)
	e.entered++
}

// unkeepLocked reverses keepLocked. A sanitized sequence has no loop, so
// it crosses each of its links once: its id is in each link's slice
// exactly once, and is swap-deleted from it. The search runs from the
// end: churn's sequences mostly die young, near where they were
// appended, and on the links thousands of sequences cross (a dozen at
// 5k ASes, up to 5 000 ids each) a search from the front cost a tenth
// of a churn epoch's apply time.
func (e *Engine) unkeepLocked(id int32) {
	hops := e.seqs.Hops(id)
	e.ix.AddKept(hops, -1)
	for i := 0; i+1 < len(hops); i++ {
		l := paths.NewLink(hops[i], hops[i+1])
		ids := e.linkIndex[l]
		last := len(ids) - 1
		j := last
		for j >= 0 && ids[j] != id {
			j--
		}
		if j < 0 {
			panic("stream: kept sequence missing from its link's index")
		}
		ids[j] = ids[last]
		if last == 0 {
			delete(e.linkIndex, l)
		} else {
			e.linkIndex[l] = ids[:last]
		}
	}
	e.linkMembers -= len(hops) - 1
	e.pc.Credit(e.rels, hops, -1)
	e.left++
}

// reflagLocked adopts a changed clique: every sequence's poisoned flag
// is re-evaluated, and the sequences whose flag flipped cross the step-4
// cut through keepLocked/unkeepLocked. The kept layer and the credit
// table are refcounts, so the result is what folding the new kept set
// from scratch would give. Rows are visited only when some flag flipped,
// in one pass over the columns and the foreign counts that moves each of
// the flipped sequences' rows into or out of the per-row aggregates
// once: from its native route's slot when that is live, else from its
// foreign count.
func (e *Engine) reflagLocked(clique []uint32) {
	e.clique = append([]uint32(nil), clique...)
	e.cliqueSet = make(map[uint32]bool, len(clique))
	for _, m := range clique {
		e.cliqueSet[m] = true
	}
	var flipped []bool // by sequence id; nil until a flag flips
	for id := range e.held {
		s := &e.held[id]
		if s.rows == 0 {
			continue
		}
		p := core.Poisoned(e.seqs.Hops(int32(id)), e.cliqueSet)
		if p == s.poisoned {
			continue
		}
		s.poisoned = p
		if flipped == nil {
			flipped = make([]bool, len(e.held))
		}
		flipped[id] = true
		if p {
			e.unkeepLocked(int32(id))
		} else {
			e.keepLocked(int32(id))
		}
	}
	if flipped == nil {
		return
	}
	move := func(k rowKey) {
		if hops := e.seqs.Hops(k.seq); e.held[k.seq].poisoned {
			e.countRowLocked(hops, k.prefix, -1)
		} else {
			e.countRowLocked(hops, k.prefix, 1)
		}
	}
	for i := range e.sessions {
		ses := &e.sessions[i]
		if ses.routes == nil {
			continue // a retired slot
		}
		for p, id := range ses.routes {
			if id < 0 || !flipped[id] {
				continue
			}
			if k, native := e.rowOfLocked(ses, uint32(p), id); native {
				move(k)
			}
		}
	}
	for k := range e.foreign {
		if flipped[k.seq] && !e.nativeHeldLocked(k) {
			move(k)
		}
	}
}

// Commit converges the current RIB into one epoch: re-runs the
// affected region of the 11-step inference over the refcounted
// aggregates, builds the cones from the credit table, and composes
// the immutable columnar snapshot — bit-identical to a batch run over
// the same routes. The returned snapshot is immutable and safe to
// publish.
func (e *Engine) Commit(ctx context.Context) *warehouse.Snapshot {
	snap, _ := e.CommitEpoch(ctx)
	return snap
}

// CommitEpoch is Commit plus provenance: it also returns the epoch's
// CommitReport, already journaled (when a journal is configured) as a
// stream.commit event, which /debug/epochs serves. The report is
// instrumentation about the commit, never an input to it.
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
	clique := core.CliqueFromIndex(e.ix, rank, core.Options{})
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
	res := core.InferIndexed(ictx, e.ix, rank, clique, core.Options{})
	ph.End(commitPhaseDuration.With("infer"), &rep.Phases.Infer)
	rep.Links, rep.ASes = len(res.Rels), len(rank)

	// Cone crediting. The credit table already holds every kept
	// sequence under the previous relationships; of those, only the ones
	// crossing a link whose relationship changed walk differently under
	// the new ones (leg 3 of the package contract).
	_, ph = trace.StartPhase(ctx, "stream.commit.credit")
	rep.NewlyCredited, rep.UncreditedPaths = e.entered, e.left
	e.entered, e.left = 0, 0
	affected := make(map[int32]struct{})
	dirty := func(l paths.Link) {
		rep.DirtyLinks++
		for _, id := range e.linkIndex[l] {
			affected[id] = struct{}{}
		}
	}
	// Both epochs' labels are in link order: one merge finds the links
	// whose relationship is new, changed or gone.
	old, cur := e.labels, res.Labels
	for len(old) > 0 || len(cur) > 0 {
		c := -1 // old[0] comes first
		switch {
		case len(old) == 0:
			c = 1
		case len(cur) > 0:
			c = paths.CompareLinks(old[0].Link, cur[0].Link)
		}
		switch {
		case c < 0:
			dirty(old[0].Link)
			old = old[1:]
		case c > 0:
			dirty(cur[0].Link)
			cur = cur[1:]
		default:
			if old[0].Rel != cur[0].Rel {
				dirty(cur[0].Link)
			}
			old, cur = old[1:], cur[1:]
		}
	}
	rep.RecreditedPaths = len(affected)
	for id := range affected {
		hops := e.seqs.Hops(id)
		e.pc.Credit(e.rels, hops, -1)
		e.pc.Credit(res.Rels, hops, 1)
	}
	e.rels, e.labels = res.Rels, res.Labels
	ph.End(commitPhaseDuration.With("credit"), &rep.Phases.Credit)

	// The cones are laid out on the labeled links' endpoints, the index
	// cone.NewRelations interns batch-side, as member lists built
	// straight from the credit table.
	_, ph = trace.StartPhase(ctx, "stream.commit.slab")
	ends := make([]uint32, 0, 2*len(res.Labels))
	for _, l := range res.Labels {
		ends = append(ends, l.Link.A, l.Link.B)
	}
	idx := asindex.New(ends)
	cones := e.pc.Rows(idx)
	ph.End(commitPhaseDuration.With("slab"), &rep.Phases.Slab)

	_, ph = trace.StartPhase(ctx, "stream.commit.compose")
	snap := warehouse.Compose(res, cones, e.pfxCount, e.keptRows)
	ph.End(commitPhaseDuration.With("compose"), &rep.Phases.Compose)

	held := e.statsLocked()
	rep.Entries, rep.RIBRoutes, rep.Sequences, rep.LinkIndex = held.Entries, held.RIBRoutes, held.Sequences, held.LinkIndex
	if !firstPendingAt.IsZero() {
		trace.PhaseSince(firstPendingAt).End(nil, &rep.WatermarkMillis)
	}
	total.End(nil, &rep.TotalMillis)

	e.opts.Journal.Info(ctx, "stream.commit", oplog.JSON("report", rep))

	return snap, rep
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statsLocked()
}

// statsLocked is the one place the table sizes are read, for Stats and
// for every CommitReport.
func (e *Engine) statsLocked() Stats {
	s := e.stats
	s.Entries = e.rows
	s.RIBRoutes = e.routes
	s.Sequences = e.seqs.Len()
	s.LinkIndex = e.linkMembers
	return s
}
