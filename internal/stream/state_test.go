package stream

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stats"
	"github.com/asrank-go/asrank/internal/topology"
)

// simCorpus is a simulated collection: ASNs[0] of every row is the
// announcing vantage point.
func simCorpus(t testing.TB, ases, vps int, seed int64) *paths.Dataset {
	t.Helper()
	p := topology.DefaultParams(seed)
	p.ASes = ases
	opts := bgpsim.DefaultOptions(seed)
	opts.NumVPs = vps
	sim, err := bgpsim.Run(topology.Generate(p), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Dataset
}

// sequenceFold is everything the engine derives from sequences rather
// than rows, rendered comparably (fmt sorts map keys).
func sequenceFold(e *Engine) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	hops := make([][]uint32, len(e.held))
	for id := range hops {
		hops[id] = e.seqs.Hops(int32(id))
	}
	return fmt.Sprint(e.ix, e.linkIndex, e.linkMembers, creditCounts(e.pc), hops)
}

// creditCounts renders a credit table's pair refcounts comparably — the
// counts alone, not the walker's scratch beside them.
func creditCounts(pc *cone.PairCounts) string {
	return fmt.Sprint(reflect.ValueOf(pc).Elem().FieldByName("counts"))
}

// checkSequenceTable asserts the sequence table's invariants: every live
// id is findable under its own hops, carries exactly the rows the row
// table says, and every other id is zeroed and released.
func checkSequenceTable(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	rows := make(map[int32]int32)
	for k := range e.rows {
		rows[k.seq]++
	}
	live := 0
	for id := range e.held {
		s, hops := &e.held[id], e.seqs.Hops(int32(id))
		if s.rows == 0 {
			if hops != nil || *s != (sequence{}) {
				t.Errorf("id %d has no rows but holds %v, %+v", id, hops, *s)
			}
			continue
		}
		live++
		if got, fresh := e.seqs.Intern(hops, true); fresh || got != int32(id) {
			t.Fatalf("sequence %d %v is filed under id %d (fresh: %v)", id, hops, got, fresh)
		}
		if s.rows != rows[int32(id)] {
			t.Errorf("sequence %d counts %d rows, the row table has %d", id, s.rows, rows[int32(id)])
		}
	}
	if live != e.seqs.Len() {
		t.Errorf("%d ids carry rows, the table holds %d sequences", live, e.seqs.Len())
	}
}

// checkPrefixTable asserts the prefix table's invariants: every live id
// is filed under its own key, its flat form is itself unless the key is
// an invalid prefix's Route form (whose flat form is the one {Bits: -1}
// key), its canonical form is its flat form's, itself or a canonical id,
// it holds exactly one reference per RIB route keyed by it and per
// form whose flat or canonical form it is, and every row's prefix is a
// live flat form. Every other id is zeroed and on the free list.
func checkPrefixTable(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	refs := make(map[uint32]int32)
	for k := range e.rib {
		refs[k.prefix]++
	}
	live := 0
	for id, s := range e.prefixes {
		if s.refs == 0 {
			if s != (prefixSlot{}) || !slices.Contains(e.freePrefixes, uint32(id)) {
				t.Errorf("prefix id %d holds no reference but is %+v, free: %v", id, s, slices.Contains(e.freePrefixes, uint32(id)))
			}
			continue
		}
		live++
		if got, ok := e.prefixIDs[s.key]; !ok || got != uint32(id) {
			t.Errorf("prefix id %d %+v is filed under %d (found: %v)", id, s.key, got, ok)
		}
		if s.flat != uint32(id) {
			refs[s.flat]++
			if s.key.IsValid() || e.prefixes[s.flat].key != (paths.PrefixKey{Bits: -1}) {
				t.Errorf("prefix id %d %+v has flat form %d %+v", id, s.key, s.flat, e.prefixes[s.flat].key)
			}
			if s.canon != e.prefixes[s.flat].canon {
				t.Errorf("prefix id %d %+v has canonical form %d, its flat form %d", id, s.key, s.canon, e.prefixes[s.flat].canon)
			}
		} else if s.canon != uint32(id) {
			refs[s.canon]++
			if c := e.prefixes[s.canon]; !s.key.IsValid() || c.canon != s.canon || c.flat != s.canon {
				t.Errorf("prefix id %d %+v has canonical form %d %+v", id, s.key, s.canon, c)
			}
		}
	}
	for id, s := range e.prefixes {
		if s.refs != refs[uint32(id)] {
			t.Errorf("prefix id %d %+v counts %d references, the tables hold %d", id, s.key, s.refs, refs[uint32(id)])
		}
	}
	if live != len(e.prefixIDs) || live+len(e.freePrefixes) != len(e.prefixes) {
		t.Errorf("%d live prefix ids, %d filed, %d free of %d", live, len(e.prefixIDs), len(e.freePrefixes), len(e.prefixes))
	}
	for k := range e.rows {
		if s := e.prefixes[k.prefix]; s.refs == 0 || s.flat != k.prefix {
			t.Fatalf("row %+v names prefix id %d, which is %+v", k, k.prefix, s)
		}
	}
}

// TestSecondPrefixOnHeldSequence: a row is a prefix's business, not the
// sequence's — a held sequence announced under another prefix moves the
// row table, the kept-row count and the prefix counts, and nothing that
// is a function of hops.
func TestSecondPrefixOnHeldSequence(t *testing.T) {
	e := New(Options{})
	hops := []uint32{10, 20, 30}
	e.Announce("rc0", 10, pfxA, hops)
	before := sequenceFold(e)
	e.Announce("rc0", 10, pfxB, hops)
	if after := sequenceFold(e); after != before {
		t.Errorf("a second prefix changed the sequence-level state:\n%s\n→\n%s", before, after)
	}
	if got := tablesOf(e); got != (tables{rib: 2, entries: 2, seqs: 1, paths: 2}) {
		t.Errorf("tables = %+v, want two routes and two rows on one sequence", got)
	}
	if len(e.pfxRef) != 2 || e.pfxCount[30] != 2 {
		t.Errorf("prefix counts = %v / %v, want two prefixes for origin 30", e.pfxRef, e.pfxCount)
	}
	checkSequenceTable(t, e)
	e.Withdraw("rc0", 10, pfxA)
	if after := sequenceFold(e); after != before {
		t.Errorf("withdrawing one of two rows changed the sequence-level state:\n%s\n→\n%s", before, after)
	}
	if got := tablesOf(e); got != (tables{rib: 1, entries: 1, seqs: 1, paths: 1}) || e.pfxCount[30] != 1 {
		t.Errorf("tables = %+v, prefix counts %v, want one row left", got, e.pfxCount)
	}
}

// TestOneRoutedPrefixCountsOnce: one /24 announced in three forms — plain,
// IPv4-mapped, host bits set — is three routes and three rows (Sanitize
// keeps them apart too), but one prefix of its origin, as
// cone.PrefixCounts counts the same rows; and the forms go as they came.
func TestOneRoutedPrefixCountsOnce(t *testing.T) {
	e := New(Options{})
	hops := []uint32{10, 20, 30}
	forms := []netip.Prefix{
		netip.MustParsePrefix("1.2.3.0/24"),
		netip.MustParsePrefix("::ffff:1.2.3.0/120"),
		netip.MustParsePrefix("1.2.3.4/24"),
	}
	for i := range forms {
		for _, p := range forms[i:] {
			e.Announce("rc0", uint32(10+i), p, append([]uint32{uint32(10 + i)}, hops[1:]...))
		}
		checkPrefixTable(t, e)
		if len(e.pfxRef) != 1 || e.pfxCount[30] != 1 {
			t.Fatalf("forms %v: prefix counts %v / %v, want one prefix for origin 30", forms[i:], e.pfxRef, e.pfxCount)
		}
	}
	for i := range forms {
		for _, p := range forms[i:] {
			e.Withdraw("rc0", uint32(10+i), p)
		}
		checkPrefixTable(t, e)
	}
	checkDrained(t, e)
}

// TestRouteSwapRetiresOneSequenceAndBearsAnother: one Announce takes
// sequence A's last row away and creates B — both keys go through the
// table's one scratch buffer — then A comes back, then everything goes.
func TestRouteSwapRetiresOneSequenceAndBearsAnother(t *testing.T) {
	e := New(Options{})
	a, b := []uint32{10, 20, 30}, []uint32{10, 21, 22, 30}
	e.Announce("rc0", 10, pfxA, a)
	e.Commit(context.Background()) // A's links have relationships: its death must remove real credits
	e.Announce("rc0", 10, pfxA, b)
	checkSequenceTable(t, e)
	if got := tablesOf(e); got != (tables{rib: 1, entries: 1, seqs: 1, paths: 1}) {
		t.Fatalf("after the swap: tables = %+v, want B alone", got)
	}
	if e.entered != 1 || e.left != 1 {
		t.Errorf("after the swap: %d entered, %d left the kept layer — want B in, A out", e.entered, e.left)
	}
	e.Announce("rc0", 10, pfxB, a) // A re-announced, into the slot it left
	checkSequenceTable(t, e)
	if got := tablesOf(e); got != (tables{rib: 2, entries: 2, seqs: 2, paths: 2}) || len(e.held) != 2 {
		t.Fatalf("after the resurrection: tables = %+v over %d slots, want A and B in two", got, len(e.held))
	}
	snap, rep := e.CommitEpoch(context.Background())
	if snap.PathCount != 2 || len(snap.Links) != 5 {
		t.Errorf("snapshot has %d paths, %d links, want 2 and 5", snap.PathCount, len(snap.Links))
	}
	if rep.NewlyCredited != 2 || rep.UncreditedPaths != 1 || e.entered+e.left != 0 {
		t.Errorf("report counts %d entered, %d left (engine still holds %d, %d) — want B and A in, A out, reset",
			rep.NewlyCredited, rep.UncreditedPaths, e.entered, e.left)
	}
	e.Withdraw("rc0", 10, pfxA)
	e.Withdraw("rc0", 10, pfxB)
	checkDrained(t, e)
}

// invalidPrefixes are five invalid prefixes that are five routes: the
// zero prefix first.
var invalidPrefixes = []netip.Prefix{
	{},
	netip.PrefixFrom(netip.MustParseAddr("192.0.2.1"), 99),
	netip.PrefixFrom(netip.MustParseAddr("192.0.2.2"), 99),
	netip.PrefixFrom(netip.MustParseAddr("::ffff:192.0.2.1"), 200), // the same 128 bits as the second, another family
	netip.PrefixFrom(netip.MustParseAddr("::"), 200),               // the zero prefix's bits, with a family
}

// TestInvalidPrefixRoutesShareARow: every invalid prefix is one row key
// (Sanitize's rule) but each is its own route.
func TestInvalidPrefixRoutesShareARow(t *testing.T) {
	e := New(Options{})
	hops := []uint32{10, 20, 30}
	invalid := invalidPrefixes
	for _, p := range invalid {
		e.Announce("rc0", 10, p, hops)
	}
	if got := tablesOf(e); got != (tables{rib: len(invalid), entries: 1, seqs: 1, paths: 1}) || len(e.pfxRef) != 0 {
		t.Fatalf("tables = %+v, %d prefix refs, want %d routes on one unweighted row", got, len(e.pfxRef), len(invalid))
	}
	for i, p := range invalid {
		e.Withdraw("rc0", 10, p)
		e.Withdraw("rc0", 10, p) // the second finds nothing
		left := len(invalid) - 1 - i
		want := tables{rib: left, entries: 1, seqs: 1, paths: 1}
		if left == 0 {
			want = tables{}
		}
		if got := tablesOf(e); got != want {
			t.Fatalf("after withdrawing %v: tables = %+v, want %+v", p, got, want)
		}
	}
}

// TestInvalidRouteFormsHoldTheirFlatForm: the invalid routes of
// TestInvalidPrefixRoutesShareARow are one prefix id each, and the zero
// prefix's is also the flat form the row is keyed by, which the other
// four hold: it outlives its own route while any of them lives.
func TestInvalidRouteFormsHoldTheirFlatForm(t *testing.T) {
	e := New(Options{})
	for _, p := range invalidPrefixes {
		e.Announce("rc0", 10, p, []uint32{10, 20, 30})
	}
	checkPrefixTable(t, e)
	e.Withdraw("rc0", 10, netip.Prefix{})
	checkPrefixTable(t, e)
	e.mu.Lock()
	flat, ok := e.prefixIDs[paths.PrefixKey{Bits: -1}]
	ids, refs := len(e.prefixIDs), e.prefixes[flat].refs
	e.mu.Unlock()
	if !ok || ids != len(invalidPrefixes) || refs != int32(len(invalidPrefixes)-1) {
		t.Fatalf("after the zero prefix's withdrawal: flat form filed %v with %d references among %d ids, want %d references among %d",
			ok, refs, ids, len(invalidPrefixes)-1, len(invalidPrefixes))
	}
	for _, p := range invalidPrefixes[1:] {
		e.Withdraw("rc0", 10, p)
		checkPrefixTable(t, e)
	}
	checkDrained(t, e)
}

// mapSizes returns the length of every map field of the struct v points
// to, unexported ones included.
func mapSizes(v any) (sizes []int) {
	s := reflect.ValueOf(v).Elem()
	for i := 0; i < s.NumField(); i++ {
		if f := s.Field(i); f.Kind() == reflect.Map {
			sizes = append(sizes, f.Len())
		}
	}
	return sizes
}

// checkDrained asserts that an engine whose every route was withdrawn
// holds nothing — before the next commit, since no table waits for one
// — and that the commit then leaves no relationships or clique behind:
// a leaked refcount anywhere is invisible to snapshot bit-identity, and
// is memory that never comes back.
func checkDrained(t *testing.T, e *Engine) {
	t.Helper()
	checkSequenceTable(t, e)
	checkPrefixTable(t, e)
	e.mu.Lock()
	for name, n := range map[string]int{
		"rib": len(e.rib), "rows": len(e.rows), "live sequences": e.seqs.Len(),
		"linkIndex": len(e.linkIndex), "linkMembers": e.linkMembers, "keptRows": e.keptRows,
		"pfxRef": len(e.pfxRef), "pfxCount": len(e.pfxCount), "prefixIDs": len(e.prefixIDs),
	} {
		if n != 0 {
			t.Errorf("drained engine still holds %s = %d", name, n)
		}
	}
	for id, s := range e.prefixes {
		if s != (prefixSlot{}) {
			t.Errorf("drained engine's prefix id %d still holds %+v", id, s)
		}
	}
	if sizes, tables := mapSizes(e.ix), mapSizes(core.NewCorpusIndex()); len(sizes) != len(tables) || slices.Max(sizes) != 0 {
		t.Errorf("drained CorpusIndex tables hold %v entries, want %d empty tables", sizes, len(tables))
	}
	if sizes := mapSizes(e.pc); len(sizes) != 1 || sizes[0] != 0 {
		t.Errorf("drained PairCounts holds %v, want one empty table", sizes)
	}
	e.mu.Unlock()
	e.Commit(context.Background())
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.rels) != 0 || len(e.clique) != 0 {
		t.Errorf("drained engine committed %d relationships and a clique of %d", len(e.rels), len(e.clique))
	}
}

// route is one (collector, vp, prefix) route as churn announces it.
type route struct {
	collector string
	vp        uint32
	prefix    netip.Prefix
	hops      []uint32
}

// churn drives e through a simulated table — withdrawals,
// resurrections, reroutes, shared sequences under new prefixes,
// garbage, a clique member torn out and restored, a commit after each
// round — calling after once after every route event. It returns every
// route it ever announced.
func churn(t *testing.T, e *Engine, after func()) []route {
	t.Helper()
	var routes []route
	ctx := context.Background()
	announce := func(r route) {
		e.Announce(r.collector, r.vp, r.prefix, r.hops)
		after()
	}
	withdraw := func(r route) {
		e.Withdraw(r.collector, r.vp, r.prefix)
		after()
	}
	for _, p := range simCorpus(t, 150, 5, 9).Paths {
		routes = append(routes, route{p.Collector, p.ASNs[0], p.Prefix, p.ASNs})
		announce(routes[len(routes)-1])
	}
	rng := stats.NewRNG(9)
	recycled := false // some sequence died and left its slot to a later one
	for round := 0; round < 6; round++ {
		for m := 0; m < 120; m++ {
			r := &routes[rng.Intn(len(routes))]
			switch rng.Intn(5) {
			case 0:
				withdraw(*r)
			case 1:
				announce(*r)
			case 2: // reroute through a detour
				i := 1 + rng.Intn(len(r.hops)-1)
				r.hops = slices.Insert(slices.Clone(r.hops), i, uint32(3_000_000+rng.Intn(64)))
				announce(*r)
			case 3: // the same sequence under one more prefix
				nr := *r
				nr.prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(len(routes) >> 8), byte(len(routes)), 0}), 24)
				routes = append(routes, nr)
				announce(nr)
			case 4: // garbage: the slot holds a dropped route
				announce(route{r.collector, r.vp, r.prefix, append(slices.Clone(r.hops), 64512)})
			}
		}
		snap := e.Commit(ctx)
		if round == 2 || round == 4 { // tear a clique member out, then restore it
			for _, r := range routes {
				if slices.Contains(r.hops, snap.Clique[0]) {
					withdraw(r)
				}
			}
			e.Commit(ctx)
			recycled = recycled || e.seqs.Len() < len(e.held)
			for _, r := range routes {
				if slices.Contains(r.hops, snap.Clique[0]) {
					announce(r)
				}
			}
			e.Commit(ctx)
		}
		checkSequenceTable(t, e)
		checkPrefixTable(t, e)
	}
	st := e.Stats()
	if st.FullRebuilds < 5 || !recycled || st.Sequences == 0 || st.Sequences >= st.Entries {
		t.Fatalf("churn too tame to mean anything: stats %+v, slots recycled: %v", st, recycled)
	}
	return routes
}

// TestDrainToEmpty withdraws every route churn ever announced.
func TestDrainToEmpty(t *testing.T) {
	e := New(Options{})
	for _, r := range churn(t, e, func() {}) {
		e.Withdraw(r.collector, r.vp, r.prefix)
	}
	checkDrained(t, e)
	if st := e.Stats(); st.Entries+st.RIBRoutes+st.Sequences+st.LinkIndex != 0 {
		t.Errorf("drained engine reports %+v", st)
	}
}

// TestPrefixIDsAreReused drains churn's table, then runs churn again on
// the same engine: the prefix table's slice only grows when no freed id
// is left, so the second run, which never holds more prefixes at once
// than the first, must fit in the first run's peak.
func TestPrefixIDsAreReused(t *testing.T) {
	e := New(Options{})
	run := func() int {
		for _, r := range churn(t, e, func() {}) {
			e.Withdraw(r.collector, r.vp, r.prefix)
		}
		checkDrained(t, e)
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.prefixes)
	}
	peak := run()
	if again := run(); peak == 0 || again > peak {
		t.Errorf("the prefix table grew to %d ids in the first run and %d in the second, want the second within the first", peak, again)
	}
}

// TestCreditTableIsAnInvariant holds the engine, after every route event
// and not only at commits, to what a commit reads: the credit table
// equals one built from scratch over the live kept sequences under the
// committed relationships, and each link's index slice holds exactly
// the kept sequences crossing the link, each once.
func TestCreditTableIsAnInvariant(t *testing.T) {
	e := New(Options{})
	events := 0
	churn(t, e, func() {
		events++
		e.mu.Lock()
		defer e.mu.Unlock()
		fresh := cone.NewPairCounts()
		crossing := make(map[paths.Link]map[int32]bool)
		for id, s := range e.held {
			if s.rows == 0 || s.poisoned {
				continue
			}
			hops := e.seqs.Hops(int32(id))
			fresh.Credit(e.rels, hops, 1)
			for i := 0; i+1 < len(hops); i++ {
				l := paths.NewLink(hops[i], hops[i+1])
				if crossing[l] == nil {
					crossing[l] = make(map[int32]bool)
				}
				crossing[l][int32(id)] = true
			}
		}
		if creditCounts(e.pc) != creditCounts(fresh) {
			t.Fatalf("event %d: the credit table (%d pairs) is not the live kept sequences' walks under the committed relationships (%d pairs)",
				events, mapSizes(e.pc)[0], mapSizes(fresh)[0])
		}
		links, members := e.ix.Links(), 0
		if len(e.linkIndex) != len(crossing) || len(e.linkIndex) != len(links) {
			t.Fatalf("event %d: the link index has %d links, the kept sequences cross %d, the corpus index counts %d",
				events, len(e.linkIndex), len(crossing), len(links))
		}
		for _, l := range links {
			if _, ok := e.linkIndex[l]; !ok {
				t.Fatalf("event %d: the corpus index holds kept link %v, the link index does not", events, l)
			}
		}
		for l, ids := range e.linkIndex {
			members += len(ids)
			seen := make(map[int32]bool, len(ids))
			for _, id := range ids {
				if !crossing[l][id] || seen[id] {
					t.Fatalf("event %d: link %v lists %v, the kept sequences crossing it are %v", events, l, ids, crossing[l])
				}
				seen[id] = true
			}
			if len(ids) != len(crossing[l]) {
				t.Fatalf("event %d: link %v lists %d sequences, %d kept ones cross it",
					events, l, len(ids), len(crossing[l]))
			}
		}
		if members != e.linkMembers {
			t.Fatalf("event %d: the link index holds %d memberships, counted %d", events, members, e.linkMembers)
		}
	})
	t.Logf("checked after %d route events", events)
}

// TestAnnounceHeldSequenceAllocates pins the ingest path's steady state:
// a route for a sequence the engine already holds costs the cleaned hop
// slice paths.SanitizeOne returns and nothing else — no key string, no
// per-row object — and withdrawing it costs nothing.
func TestAnnounceHeldSequenceAllocates(t *testing.T) {
	e := New(Options{})
	hops := []uint32{10, 20, 30, 40}
	e.Announce("rc0", 10, pfxA, hops)
	e.Announce("rc0", 10, pfxB, hops)
	e.Withdraw("rc0", 10, pfxB)
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		i++
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		e.Announce("rc0", 10, p, hops)
		e.Withdraw("rc0", 10, p)
	})
	if allocs != 1 {
		t.Errorf("announce + withdraw of a held sequence under a new prefix: %.0f allocations, want 1 (the cleaned hops)", allocs)
	}
}

// TestHeapPerRoute pins what the engine holds per RIB route after a
// bootstrap and one commit. At 1k ASes and 12 vantage points (25k
// routes over 8k distinct hop sequences) it measures 134 B per route,
// and 166 B at 5k ASes; route and row keys that each carried their own
// 24-byte PrefixKey measured 204 B and 280 B, and the per-row entry
// objects keyed by netip.Prefix and strings before them 459 B and
// 584 B. The bound leaves ≈ 25 %.
func TestHeapPerRoute(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's shadow allocations are not the engine's")
			}
		}
	}
	ds := simCorpus(t, 1000, 12, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := New(Options{})
	for _, p := range ds.Paths {
		e.Announce(p.Collector, p.ASNs[0], p.Prefix, p.ASNs)
	}
	e.Commit(context.Background())
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := e.Stats()
	perRoute := float64(after.HeapAlloc-before.HeapAlloc) / float64(st.RIBRoutes)
	t.Logf("%d routes, %d rows, %d sequences: %.0f B of heap per route", st.RIBRoutes, st.Entries, st.Sequences, perRoute)
	const bound = 168
	if perRoute > bound {
		t.Errorf("engine holds %.0f B per RIB route, bound %d", perRoute, bound)
	}
	runtime.KeepAlive(ds)
}
