package paths

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestSanitizeStatsArithmetic pins the bookkeeping fix: every input
// path lands in exactly one of the Kept/discard buckets, and the
// PrependingRemoved / IXPSpliced effect counters describe kept paths
// only — a path discarded as too-short or duplicate after cleaning must
// not inflate them.
func TestSanitizeStatsArithmetic(t *testing.T) {
	ds := &Dataset{}
	ds.Add(mkPath(10, 20, 20, 30))     // kept, prepending compressed
	ds.Add(mkPath(10, 20, 20, 30))     // duplicate of the above: effect not counted
	ds.Add(mkPath(10, 10))             // collapses below 2 hops: prepending not counted
	ds.Add(mkPath(10, 555))            // IXP spliced to 1 hop: splice not counted
	ds.Add(mkPath(10, 555, 30))        // kept, IXP spliced
	ds.Add(mkPath(10, 64512, 30))      // reserved ASN
	ds.Add(mkPath(10, 20, 30, 20, 40)) // loop

	out, stats := Sanitize(ds, SanitizeOptions{IXPASes: map[uint32]bool{555: true}})
	want := SanitizeStats{
		Input:             7,
		Kept:              2,
		PrependingRemoved: 1,
		IXPSpliced:        1,
		ReservedDiscarded: 1,
		LoopDiscarded:     1,
		TooShort:          2,
		Duplicates:        1,
	}
	if stats != want {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}
	if got := stats.Kept + stats.ReservedDiscarded + stats.LoopDiscarded + stats.TooShort + stats.Duplicates; got != stats.Input {
		t.Errorf("buckets sum to %d, want Input = %d", got, stats.Input)
	}
	if out.NumPaths() != stats.Kept {
		t.Errorf("output has %d paths, stats.Kept = %d", out.NumPaths(), stats.Kept)
	}
}

// TestSanitizeParallelDeterministic checks that the worker-pool size
// (GOMAXPROCS) never changes the output dataset or the stats.
func TestSanitizeParallelDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ds := &Dataset{}
	// A mix big enough that shards straddle every discard class.
	for i := 0; i < 200; i++ {
		base := uint32(1000 + i)
		ds.Add(mkPath(10, base, base+1, base+2))
		ds.Add(mkPath(10, base, base, base+1)) // prepending
		ds.Add(mkPath(10, base, base+1, base+2))
		if i%5 == 0 {
			ds.Add(mkPath(10, 64512, base)) // reserved
			ds.Add(mkPath(10, base, 20, base, 30))
			ds.Add(mkPath(10, 555, base)) // splices too short
		}
	}
	opts := SanitizeOptions{IXPASes: map[uint32]bool{555: true}}
	runtime.GOMAXPROCS(1)
	wantOut, wantStats := Sanitize(ds, opts)
	for _, procs := range []int{2, 7, 32} {
		runtime.GOMAXPROCS(procs)
		out, stats := Sanitize(ds, opts)
		if stats != wantStats {
			t.Fatalf("GOMAXPROCS=%d: stats = %+v, want %+v", procs, stats, wantStats)
		}
		if !reflect.DeepEqual(out, wantOut) {
			t.Fatalf("GOMAXPROCS=%d: output dataset differs from sequential run", procs)
		}
	}
}

// diffSanitize fails unless SanitizeCtx and the per-row oracle agree on
// ds: rows and their order, stats, and a grouping equal to
// GroupByHopsFeed of the output, which the output carries. SanitizeCtx
// takes ds, so the oracle reads a copy of its rows made before, and the
// output must be written into ds's own rows.
func diffSanitize(t *testing.T, ds *Dataset, opts SanitizeOptions) (*Dataset, SanitizeStats) {
	t.Helper()
	want, wantStats := oracleSanitize(&Dataset{Paths: slices.Clone(ds.Paths)}, opts)
	rows := ds.Paths
	got, gotStats, groups := SanitizeCtx(context.Background(), ds, opts, nil)
	if gotStats != wantStats {
		t.Fatalf("stats %+v, oracle %+v", gotStats, wantStats)
	}
	// By content: no rows are none whether the table is nil or not.
	if len(got.Paths) != len(want.Paths) || len(want.Paths) > 0 && !reflect.DeepEqual(got.Paths, want.Paths) {
		t.Fatalf("rows differ from the oracle's\n got %+v\nwant %+v", got.Paths, want.Paths)
	}
	if len(got.Paths) > 0 && &got.Paths[0] != &rows[0] {
		t.Fatal("SanitizeCtx copied the rows, want them cleaned in place")
	}
	if ds.NumPaths() != 0 || ds.Groups() != nil {
		t.Fatalf("SanitizeCtx left the dataset it took with %d rows (grouped %v), want it empty", ds.NumPaths(), ds.Groups() != nil)
	}
	if err := GroupedByHops(got); err != nil {
		t.Fatal(err)
	}
	if got.Groups() != groups {
		t.Fatal("Sanitize returned another grouping than its output carries")
	}
	return got, gotStats
}

// deepCopy returns a copy of ds that shares nothing with it: its rows,
// their hops and its grouping are copied.
func deepCopy(ds *Dataset) *Dataset {
	out := &Dataset{Paths: slices.Clone(ds.Paths)}
	for i := range out.Paths {
		out.Paths[i].ASNs = slices.Clone(out.Paths[i].ASNs)
	}
	if g := ds.groups; g != nil {
		out.groups = &Groups{Of: slices.Clone(g.Of), Hops: slices.Clone(g.Hops)}
		for i := range out.groups.Hops {
			out.groups.Hops[i] = slices.Clone(out.groups.Hops[i])
		}
	}
	return out
}

// GroupedByHops reports how ds's grouping fails to be what Sanitize and
// FromMRT attach: one that describes ds's rows (Dataset.Groups) and
// equals GroupByHopsFeed of the same rows built by hand — groups of
// equal hops, numbered in first-seen row order.
func GroupedByHops(ds *Dataset) error {
	g := ds.Groups()
	if g == nil {
		return fmt.Errorf("the grouping of the %d rows does not describe them", len(ds.Paths))
	}
	// By content: an empty column is one whether it is nil or not.
	if want := GroupByHopsFeed(&Dataset{Paths: ds.Paths}, nil); !slices.Equal(g.Of, want.Of) || !slices.EqualFunc(g.Hops, want.Hops, slices.Equal) {
		return fmt.Errorf("grouping %+v, the rows group by content as %+v", g, want)
	}
	return nil
}

// PrefixMajor returns ds's rows ordered by prefix, ties in input order:
// the order of an MRT TABLE_DUMP_V2 file, where the rows of one hop
// sequence lie scattered across the table. bgpsim writes origin-major,
// consecutive rows sharing a path.
func PrefixMajor(ds *Dataset) *Dataset {
	out := &Dataset{Paths: slices.Clone(ds.Paths)}
	slices.SortStableFunc(out.Paths, func(a, b Path) int {
		return cmp.Or(a.Prefix.Addr().Compare(b.Prefix.Addr()), cmp.Compare(a.Prefix.Bits(), b.Prefix.Bits()))
	})
	return out
}

// TestSanitizeDuplicatesBySequence covers what the duplicate collapse
// must get right now that it looks inside one sequence's rows only.
func TestSanitizeDuplicatesBySequence(t *testing.T) {
	row := func(collector string, prefix netip.Prefix, asns ...uint32) Path {
		return Path{Collector: collector, Prefix: prefix, ASNs: asns}
	}
	pfx := netip.MustParsePrefix

	// One path under 20 000 prefixes alternating between two collectors,
	// every third row repeated after all of them.
	wide := &Dataset{}
	for i := 0; i < 20000; i++ {
		wide.Add(row([]string{"rv1", "rv2"}[i%2], netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 32), 10, 20, 30))
	}
	for i := 0; i < 20000; i += 3 {
		wide.Add(wide.Paths[i])
	}

	cases := []struct {
		name string
		ds   *Dataset
		want SanitizeStats
		// slowdown bounds the pass's wall time as a multiple of the
		// per-row oracle's, which hashes every row once: sorting the one
		// bucket takes about twice the oracle's time, scanning it pairwise
		// some fifty times.
		slowdown int
	}{
		{
			name:     "one sequence under 20000 prefixes",
			ds:       wide,
			want:     SanitizeStats{Input: 26667, Kept: 20000, Duplicates: 6667},
			slowdown: 8,
		},
		{
			name: "all invalid prefixes are one",
			ds: &Dataset{Paths: []Path{
				row("rv1", netip.PrefixFrom(netip.MustParseAddr("10.0.0.0"), 99), 10, 20),
				row("rv1", netip.PrefixFrom(netip.MustParseAddr("10.9.9.9"), 77), 10, 20),
				row("rv1", netip.Prefix{}, 10, 20),
			}},
			want: SanitizeStats{Input: 3, Kept: 1, Duplicates: 2},
		},
		{
			name: "v4 and v4-mapped are two, host bits count",
			ds: &Dataset{Paths: []Path{
				row("rv1", pfx("10.0.0.0/24"), 10, 20),
				row("rv1", pfx("::ffff:10.0.0.0/120"), 10, 20),
				row("rv1", pfx("10.0.0.7/24"), 10, 20),
				row("rv1", pfx("::ffff:10.0.0.0/24"), 10, 20),
			}},
			want: SanitizeStats{Input: 4, Kept: 4},
		},
		{
			name: "a prepended spelling first, then the plain one",
			ds: &Dataset{Paths: []Path{
				row("rv1", pfx("10.0.0.0/24"), 10, 10, 20, 30),
				row("rv1", pfx("10.0.0.0/24"), 10, 20, 30),
			}},
			want: SanitizeStats{Input: 2, Kept: 1, Duplicates: 1, PrependingRemoved: 1},
		},
		{
			name: "the plain spelling first, then a prepended one",
			ds: &Dataset{Paths: []Path{
				row("rv1", pfx("10.0.0.0/24"), 10, 20, 30),
				row("rv1", pfx("10.0.0.0/24"), 10, 20, 20, 30),
				row("rv2", pfx("10.0.0.0/24"), 10, 20, 30, 30),
			}},
			want: SanitizeStats{Input: 3, Kept: 2, Duplicates: 1, PrependingRemoved: 1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.slowdown > 0 {
				pass := fastestOf(3, func() { Sanitize(c.ds, SanitizeOptions{}) })
				oracle := fastestOf(3, func() { oracleSanitize(c.ds, SanitizeOptions{}) })
				if pass > time.Duration(c.slowdown)*oracle {
					t.Errorf("Sanitize took %v, the per-row oracle %v: more than %d× slower", pass, oracle, c.slowdown)
				}
			}
			if _, stats := diffSanitize(t, c.ds, SanitizeOptions{}); stats != c.want {
				t.Errorf("stats = %+v, want %+v", stats, c.want)
			}
		})
	}
}

// fastestOf is the shortest of n timed runs of fn.
func fastestOf(n int, fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for ; n > 0; n-- {
		start := time.Now()
		fn()
		best = min(best, time.Since(start))
	}
	return best
}

// TestSanitizeMatchesOraclePrefixMajor reruns TestSanitizeMatchesOracle's
// corpora in the order a RIB dump has, where a sequence's rows are not
// neighbours.
func TestSanitizeMatchesOraclePrefixMajor(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := PrefixMajor(randomCorpus(rng, 20+rng.Intn(300)))
		var opts SanitizeOptions
		if seed%2 == 0 {
			opts.IXPASes = map[uint32]bool{555: true}
		}
		diffSanitize(t, ds, opts)
	}
}

// FuzzSanitize diffs the sanitizer against the per-row one on whatever
// corpus the reader makes of arbitrary bytes.
func FuzzSanitize(f *testing.F) {
	for _, in := range readSeeds {
		f.Add([]byte(in), false)
	}
	var buf bytes.Buffer
	if err := Write(&buf, randomCorpus(rand.New(rand.NewSource(3)), 60)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), false)
	f.Add(buf.Bytes(), true)
	f.Fuzz(func(t *testing.T, data []byte, noIXP bool) {
		ds, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var opts SanitizeOptions
		if !noIXP {
			opts.IXPASes = map[uint32]bool{555: true}
		}
		rows := &Dataset{Paths: slices.Clone(ds.Paths)}
		before := deepCopy(ds)
		Sanitize(ds, opts)
		if !reflect.DeepEqual(ds, before) {
			t.Fatal("Sanitize changed its input")
		}
		diffSanitize(t, ds, opts)   // per path, through the reader's grouping
		diffSanitize(t, rows, opts) // per row, grouped by content
	})
}

// TestFeedReadersSeeEverySequence runs two readers beside a grouping
// pass: each sees every sequence once, in birth order, whatever the
// interleaving, and returns once the pass has closed the feed.
func TestFeedReadersSeeEverySequence(t *testing.T) {
	rows := make([]Path, 3*feedBatch+17)
	for i := range rows {
		rows[i] = mkPath(10, uint32(100+i))
	}
	feed := NewFeed()
	var (
		wg  sync.WaitGroup
		got [2][][]uint32
	)
	for r := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			feed.Each(func(hops []uint32) { got[r] = append(got[r], hops) })
		}()
	}
	groups := GroupByHopsFeed(&Dataset{Paths: rows}, feed)
	wg.Wait()
	for r := range got {
		if !reflect.DeepEqual(got[r], groups.Hops) {
			t.Errorf("reader %d saw %d sequences, the pass interned %d", r, len(got[r]), len(groups.Hops))
		}
	}
	// A reader that starts after the close (the folders at one worker)
	// still drains everything.
	late := 0
	feed.Each(func([]uint32) { late++ })
	if late != len(groups.Hops) {
		t.Errorf("a reader started after the close saw %d sequences, want %d", late, len(groups.Hops))
	}
}

// TestFeedSizeHintIsTheGroupingHandedIn: a reader waiting beside the
// pass learns how many groups the dataset's own grouping handed it — a
// bound on the sequences published — and 0 for rows with no grouping
// that holds, or for a pass that ended before it began.
func TestFeedSizeHintIsTheGroupingHandedIn(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, randomCorpus(rand.New(rand.NewSource(4)), 300)); err != nil {
		t.Fatal(err)
	}
	read, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ds   *Dataset
		want int
	}{{"read", read, len(read.groups.Hops)}, {"rows", &Dataset{Paths: read.Paths[1:]}, 0}} {
		feed := NewFeed()
		hint := make(chan int)
		go func() { hint <- feed.SizeHint() }()
		groups := GroupByHopsFeed(tc.ds, feed)
		if got := <-hint; got != tc.want || got > 0 && len(groups.Hops) > got {
			t.Errorf("%s: SizeHint %d, want %d; %d sequences published", tc.name, got, tc.want, len(groups.Hops))
		}
	}
	feed := NewFeed()
	func() {
		defer func() { _ = recover() }()
		GroupByHopsFeed(nil, feed)
	}()
	if got := feed.SizeHint(); got != 0 {
		t.Errorf("a pass that panicked before it began: SizeHint %d, want 0", got)
	}
}

// TestFilterOverwritesOnlyItsOwnRows holds Filter's ownership rule:
// rows that carry the grouping filtered (Sanitize's output) are
// filtered in place, a caller's rows grouped afresh are copied and left
// as they were, and either way the kept rows carry the kept grouping.
func TestFilterOverwritesOnlyItsOwnRows(t *testing.T) {
	pfx := func(i int) netip.Prefix { return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), 32) }
	seqs := [][]uint32{{1, 2, 3}, {4, 5}, {1, 2, 3}, {6, 7}, {4, 5}, {8, 9}}
	input := &Dataset{}
	for i, hops := range seqs {
		input.Add(Path{Collector: "rv", Prefix: pfx(i), ASNs: slices.Clone(hops)})
	}
	dropFour := func(hops []uint32) bool { return hops[0] != 4 }
	wantKept := [][]uint32{{1, 2, 3}, {1, 2, 3}, {6, 7}, {8, 9}}
	check := func(name string, kept *Dataset) {
		t.Helper()
		var got [][]uint32
		for _, p := range kept.Paths {
			got = append(got, p.ASNs)
		}
		if !reflect.DeepEqual(got, wantKept) {
			t.Errorf("%s: kept %v, want %v", name, got, wantKept)
		}
		if err := GroupedByHops(kept); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	san, _, g := SanitizeCtx(context.Background(), input.Clone(), SanitizeOptions{}, nil)
	if san.groups != g {
		t.Fatal("Sanitize's output does not carry the grouping it returns")
	}
	kept := g.Filter(san, dropFour)
	check("sanitized", kept)
	if &kept.Paths[0] != &san.Paths[0] {
		t.Error("Sanitize's output was copied, want it filtered in place")
	}

	before := slices.Clone(input.Paths)
	kept = GroupByHopsFeed(input, nil).Filter(input, dropFour)
	check("caller's", kept)
	if &kept.Paths[0] == &input.Paths[0] || !reflect.DeepEqual(input.Paths, before) {
		t.Error("the caller's rows were overwritten")
	}
}
