package stream

import (
	"context"
	"fmt"
	"maps"
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

// ribKey names one route as the tests rebuild the RIB: a vantage
// point's route to one prefix id of the Route form.
type ribKey struct {
	prefix, collector, vp uint32
}

// routeTables rebuilds, with plain maps and from a walk of every
// session's column, the route → sequence table (dropped routes
// included) and the row → routes-announcing-it table the engine derives
// from its columns and its foreign counts. It trusts nothing but the
// column slots: which route is native is not asked. Call with e.mu held.
func routeTables(e *Engine) (rib map[ribKey]int32, rows map[rowKey]int32) {
	rib, rows = make(map[ribKey]int32), make(map[rowKey]int32)
	for _, ses := range e.sessions {
		for p, id := range ses.routes {
			if id == noRoute {
				continue
			}
			rib[ribKey{prefix: uint32(p), collector: ses.collector, vp: ses.vp}] = id
			if id != dropped {
				rows[rowKey{prefix: e.prefixes[p].flat, collector: ses.collector, seq: id}]++
			}
		}
	}
	return rib, rows
}

// checkSequenceTable asserts the sequence table's invariants: every live
// id is findable under its own hops, carries exactly the rows the
// rebuilt row table says, and every other id is zeroed and released;
// and the row table's: Stats.Entries and Stats.RIBRoutes count the
// rebuilt tables, every column slot holds a sentinel or a live sequence,
// the foreign counts are each row's routes but its native one, and the
// kept-row count and prefix counts are a recount over the kept rows.
func checkSequenceTable(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	rib, rowTable := routeTables(e)
	rows := make(map[int32]int32)
	for k := range rowTable {
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
	if st := e.statsLocked(); st.Entries != len(rowTable) || st.RIBRoutes != len(rib) {
		t.Errorf("stats count %d rows and %d routes, the columns hold %d and %d", st.Entries, st.RIBRoutes, len(rowTable), len(rib))
	}
	native := make(map[rowKey]int32)
	for k, id := range rib {
		if id == dropped {
			continue
		}
		if id < 0 || int(id) >= len(e.held) || e.held[id].rows == 0 {
			t.Fatalf("route %+v holds %d, neither a sentinel nor a live sequence", k, id)
		}
		if e.prefixes[k.prefix].key.IsValid() && e.seqs.Hops(id)[0] == k.vp {
			native[rowKey{prefix: k.prefix, collector: k.collector, seq: id}]++
		}
	}
	for k, n := range rowTable {
		if native[k] > 1 || e.foreign[k] != n-native[k] {
			t.Errorf("row %+v: %d routes, %d native, foreign count %d", k, n, native[k], e.foreign[k])
		}
	}
	for k := range e.foreign {
		if _, ok := rowTable[k]; !ok {
			t.Errorf("foreign count %d for row %+v, which no route announces", e.foreign[k], k)
		}
	}
	kept, pfxRef, pfxCount := 0, make(map[uint64]int32), make(map[uint32]int)
	for k := range rowTable {
		if e.held[k.seq].poisoned {
			continue
		}
		kept++
		if e.prefixes[k.prefix].key.IsValid() {
			hops := e.seqs.Hops(k.seq)
			origin := hops[len(hops)-1]
			pk := uint64(e.prefixes[k.prefix].canon)<<32 | uint64(origin)
			if pfxRef[pk] == 0 {
				pfxCount[origin]++
			}
			pfxRef[pk]++
		}
	}
	if kept != e.keptRows || !maps.Equal(pfxRef, e.pfxRef) || !maps.Equal(pfxCount, e.pfxCount) {
		t.Errorf("the rows recount %d kept, prefix counts %v / %v; the engine holds %d, %v / %v",
			kept, pfxRef, pfxCount, e.keptRows, e.pfxRef, e.pfxCount)
	}
	for i, ses := range e.sessions {
		if len(ses.routes) > cap(e.prefixes) {
			t.Errorf("session %d's column has %d slots, the prefix table room for %d", i, len(ses.routes), cap(e.prefixes))
		}
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
	rib, rows := routeTables(e)
	refs := make(map[uint32]int32)
	for k := range rib {
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
	for k := range rows {
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

// checkRoutes runs the route, row, sequence and prefix table checks.
func checkRoutes(t *testing.T, e *Engine) {
	t.Helper()
	checkSequenceTable(t, e)
	checkPrefixTable(t, e)
}

// TestRelayedHopsWithdrawnInBothOrders: VP 11 relaying VP 10's hops
// verbatim under VP 10's prefix is a foreign route, alone on its row
// until VP 10's native route joins it. Announced in either order and
// withdrawn in either order, the two are one row until the second goes.
func TestRelayedHopsWithdrawnInBothOrders(t *testing.T) {
	hops := []uint32{10, 20, 30}
	for _, announceNativeFirst := range []bool{false, true} {
		for _, withdrawNativeFirst := range []bool{false, true} {
			vps := []uint32{11, 10} // foreign, native
			if announceNativeFirst {
				vps = []uint32{10, 11}
			}
			e := New(Options{})
			for i, vp := range vps {
				e.Announce("rc0", vp, pfxA, hops)
				checkRoutes(t, e)
				if got := tablesOf(e); got != (tables{rib: i + 1, entries: 1, seqs: 1, paths: 1}) {
					t.Fatalf("after VP %d's announce: tables = %+v", vp, got)
				}
			}
			if refs := soleEntryRefs(t, e); refs != 2 {
				t.Fatalf("relayed row refs = %d, want 2", refs)
			}
			e.Commit(context.Background())
			vps = []uint32{11, 10}
			if withdrawNativeFirst {
				vps = []uint32{10, 11}
			}
			e.Withdraw("rc0", vps[0], pfxA)
			checkRoutes(t, e)
			if got := tablesOf(e); got != (tables{rib: 1, entries: 1, seqs: 1, paths: 1}) || e.pfxCount[30] != 1 {
				t.Fatalf("after VP %d's withdraw: tables = %+v, prefix counts %v, want the row held by VP %d", vps[0], got, e.pfxCount, vps[1])
			}
			e.Withdraw("rc0", vps[1], pfxA)
			checkDrained(t, e)
		}
	}
}

// TestNativeAndForeignRouteShareARow: a native and a foreign route on one
// row, each rerouted in turn. The row outlives the native route's
// reroute on the foreign one alone, and goes with the foreign route's,
// taking its sequence with it; the other collector's copy of the same
// route is another row.
func TestNativeAndForeignRouteShareARow(t *testing.T) {
	e := New(Options{})
	a, b := []uint32{10, 20, 30}, []uint32{10, 21, 30}
	e.Announce("rc0", 10, pfxA, a)
	e.Announce("rc0", 11, pfxA, a)
	e.Announce("rc1", 11, pfxA, a) // foreign, and its collector holds no native route for it
	checkRoutes(t, e)
	if got := tablesOf(e); got != (tables{rib: 3, entries: 2, seqs: 1, paths: 2}) {
		t.Fatalf("tables = %+v, want three routes on two rows", got)
	}
	e.Commit(context.Background())
	e.Announce("rc0", 10, pfxA, b) // the native route moves to b's row
	checkRoutes(t, e)
	if got := tablesOf(e); got != (tables{rib: 3, entries: 3, seqs: 2, paths: 3}) {
		t.Fatalf("after the native reroute: tables = %+v, want a's rows held and b's born", got)
	}
	e.Announce("rc0", 11, pfxA, b) // the foreign route joins it
	e.Announce("rc1", 11, pfxA, b)
	checkRoutes(t, e)
	if got := tablesOf(e); got != (tables{rib: 3, entries: 2, seqs: 1, paths: 2}) || e.entered != 1 || e.left != 1 {
		t.Fatalf("after the foreign reroutes: tables = %+v, %d entered, %d left, want b alone on two rows", got, e.entered, e.left)
	}
	if len(e.pfxRef) != 1 || e.pfxCount[30] != 1 {
		t.Errorf("prefix counts = %v / %v, want one prefix for origin 30", e.pfxRef, e.pfxCount)
	}
	snap := e.Commit(context.Background())
	if snap.PathCount != 2 {
		t.Errorf("snapshot counts %d paths, want 2", snap.PathCount)
	}
	e.Withdraw("rc1", 11, pfxA)
	e.Withdraw("rc0", 10, pfxA)
	checkRoutes(t, e)
	if got := tablesOf(e); got != (tables{rib: 1, entries: 1, seqs: 1, paths: 1}) {
		t.Fatalf("with the relayed route alone: tables = %+v", got)
	}
	e.Withdraw("rc0", 11, pfxA)
	checkDrained(t, e)
}

// TestFlagFlipsMoveEachRowOnce: a clique change flips two sequences'
// poisoned flags, each carried by a row no native route holds and a row
// whose native route shares it with a foreign one. reflagLocked's row
// pass finds the first in the foreign counts and the second in its
// native slot, and moves each once. The routes are FuzzCorpusMutator's
// clique-change seed: {1, 2} under the first commit, {10, 11} under the
// second, with a 1–7–8–2 sandwich the change un-poisons and a
// 10–20–22–11 one it poisons.
func TestFlagFlipsMoveEachRowOnce(t *testing.T) {
	e := New(Options{})
	pfx := func(hi, lo byte) netip.Prefix { return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, hi, lo, 0}), 24) }
	native := func(hi, lo byte, hops ...uint32) { e.Announce("rc0", hops[0], pfx(hi, lo), hops) }
	sandwich := func(hi byte, hops ...uint32) {
		e.Announce("rc0", 99, pfx(hi, 9), hops) // relayed: its row's only route
		native(hi, 8, hops...)
		e.Announce("rc0", 98, pfx(hi, 8), hops) // relayed onto the native route's row
	}
	native(0, 1, 1, 2, 3)
	native(0, 2, 4, 2, 5)
	sandwich(0, 6, 1, 7, 8, 2, 9)
	if _, rep := e.CommitEpoch(context.Background()); !slices.Equal(e.clique, []uint32{1, 2}) || rep.Reason != ReasonInitial {
		t.Fatalf("first commit: clique %v (%s), want [1 2]", e.clique, rep.Reason)
	}
	checkRoutes(t, e)
	native(1, 1, 11, 10, 12)
	native(1, 2, 13, 10, 14)
	native(1, 3, 15, 10, 16)
	native(1, 4, 17, 10, 18)
	sandwich(1, 19, 10, 20, 22, 11, 21)
	before := tablesOf(e)
	if _, rep := e.CommitEpoch(context.Background()); !slices.Equal(e.clique, []uint32{10, 11}) || rep.Reason != ReasonCliqueChurn {
		t.Fatalf("second commit: clique %v (%s), want [10 11] from clique churn", e.clique, rep.Reason)
	}
	checkRoutes(t, e)
	if after := tablesOf(e); after != before || before != (tables{rib: 12, entries: 10, seqs: 8, paths: 8}) {
		t.Errorf("the flips moved the tables %+v → %+v, want 12 routes on 10 rows, two kept rows in and two out", before, after)
	}
	e.mu.Lock()
	up, _ := e.seqs.Intern([]uint32{6, 1, 7, 8, 2, 9}, true)
	down, _ := e.seqs.Intern([]uint32{19, 10, 20, 22, 11, 21}, true)
	flipped := !e.held[up].poisoned && e.held[down].poisoned
	e.mu.Unlock()
	if !flipped {
		t.Errorf("the clique change flipped neither sandwich")
	}
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
	rib, rows := routeTables(e)
	for name, n := range map[string]int{
		"rib": len(rib), "rows": len(rows), "routes": e.routes, "row count": e.rows, "foreign": len(e.foreign),
		"live sequences": e.seqs.Len(),
		"linkIndex":      len(e.linkIndex), "linkMembers": e.linkMembers, "keptRows": e.keptRows,
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
	if len(e.sessionIDs) != 0 || len(e.freeSessions) != len(e.sessions) {
		t.Errorf("drained engine still holds %d sessions; %d of %d slots are free", len(e.sessionIDs), len(e.freeSessions), len(e.sessions))
	}
	for i, ses := range e.sessions {
		if ses.routes != nil || ses.live != 0 {
			t.Errorf("drained engine's session slot %d still holds a column of %d slots, %d routes", i, len(ses.routes), ses.live)
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
// garbage, routes relayed by another VP, a clique member torn out and
// restored, a commit after each round — calling after once after every
// route event. It returns every route it ever announced.
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
			switch rng.Intn(6) {
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
			case 5: // another VP relays the route verbatim: a foreign route on its row
				nr := *r
				nr.vp = routes[rng.Intn(len(routes))].vp
				routes = append(routes, nr)
				announce(nr)
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
			checkSequenceTable(t, e) // the flag flips moved the torn-out sequences' rows
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

// TestDrainedSessionIsRetired: a session whose last route is withdrawn
// drops its column and frees its slot while the other sessions keep
// theirs; re-announcing to it opens a new column in that slot, and a
// session opened next takes a slot of its own.
func TestDrainedSessionIsRetired(t *testing.T) {
	e := New(Options{})
	e.Announce("rc0", 10, pfxA, []uint32{10, 20, 30})
	e.Announce("rc0", 10, pfxB, []uint32{10, 21, 30})
	e.Announce("rc0", 11, pfxA, []uint32{11, 20, 30})
	e.mu.Lock()
	retired := e.sessionIDs[10]
	old := &e.sessions[retired].routes[0]
	e.mu.Unlock()

	e.Withdraw("rc0", 10, pfxA)
	e.Withdraw("rc0", 10, pfxB)
	e.Withdraw("rc0", 10, pfxB) // the session is gone: a miss, as for a prefix never announced
	checkSequenceTable(t, e)
	e.mu.Lock()
	if _, ok := e.sessionIDs[10]; ok || e.sessions[retired].routes != nil || !slices.Equal(e.freeSessions, []int32{retired}) {
		t.Errorf("drained session: filed %v, column of %d slots, free slots %v; want it retired into slot %d",
			ok, len(e.sessions[retired].routes), e.freeSessions, retired)
	}
	if s, ok := e.sessionIDs[11]; !ok || e.sessions[s].live != 1 {
		t.Errorf("the other session is filed %v with %d routes, want 1", ok, e.sessions[s].live)
	}
	e.mu.Unlock()

	e.Announce("rc0", 10, pfxB, []uint32{10, 22, 30})
	e.Announce("rc0", 12, pfxB, []uint32{12, 22, 30})
	checkSequenceTable(t, e)
	checkPrefixTable(t, e)
	e.mu.Lock()
	s, ok := e.sessionIDs[10]
	if !ok || s != retired || e.sessions[s].live != 1 || len(e.freeSessions) != 0 || len(e.sessions) != 3 {
		t.Errorf("re-announced session in slot %d (filed %v) with %d routes over %d slots, %d free; want slot %d, 1 route, 3 slots, none free",
			s, ok, e.sessions[s].live, len(e.sessions), len(e.freeSessions), retired)
	}
	if ok && &e.sessions[s].routes[0] == old {
		t.Error("the re-announced session writes into the column it was retired with")
	}
	e.mu.Unlock()

	e.Withdraw("rc0", 10, pfxB)
	e.Withdraw("rc0", 11, pfxA)
	e.Withdraw("rc0", 12, pfxB)
	checkDrained(t, e)
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
// routes over 8k distinct hop sequences) it measures 95 B per route, and
// at 5k ASes and 40 vantage points (360k routes over 112k sequences)
// 70 B: the routes are int32 slots of dense per-session columns and most
// rows are derived from them, where a route map and a row map of 16-byte
// slots measured 136 B and 117 B. Route and row keys that each carried
// their own 24-byte PrefixKey measured 204 B at 1k ASes, and the per-row
// entry objects keyed by netip.Prefix and strings before them 459 B.
// Each bound leaves ≈ 25 %. The 5k-AS case takes a few seconds and
// skips under -short.
func TestHeapPerRoute(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's shadow allocations are not the engine's")
			}
		}
	}
	for _, tc := range []struct {
		ases, vps int
		bound     float64
	}{
		{1000, 12, 120},
		{5000, 40, 88},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.ases, tc.vps), func(t *testing.T) {
			if tc.ases > 1000 && testing.Short() {
				t.Skip("a 5k-AS table under -short")
			}
			ds := simCorpus(t, tc.ases, tc.vps, 1)
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
			if perRoute > tc.bound {
				t.Errorf("engine holds %.0f B per RIB route, bound %.0f", perRoute, tc.bound)
			}
			runtime.KeepAlive(ds)
		})
	}
}
