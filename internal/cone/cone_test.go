package cone

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/asrank-go/asrank/internal/asindex"
	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// rels builds a relationship map from (provider, customer) and peer
// pairs.
func rels(p2c [][2]uint32, p2p [][2]uint32) map[paths.Link]topology.Relationship {
	out := map[paths.Link]topology.Relationship{}
	for _, pc := range p2c {
		l := paths.NewLink(pc[0], pc[1])
		if l.A == pc[0] {
			out[l] = topology.P2C
		} else {
			out[l] = topology.C2P
		}
	}
	for _, pp := range p2p {
		out[paths.NewLink(pp[0], pp[1])] = topology.P2P
	}
	return out
}

// hierarchy: 1 > 3 > 5, 1 > 4, 2 > 4 (multihomed), 1 ~ 2, 3 ~ 4.
func hierarchy() *Relations {
	return NewRelations(rels(
		[][2]uint32{{1, 3}, {3, 5}, {1, 4}, {2, 4}},
		[][2]uint32{{1, 2}, {3, 4}},
	))
}

func set(asns ...uint32) map[uint32]bool {
	m := map[uint32]bool{}
	for _, a := range asns {
		m[a] = true
	}
	return m
}

// memberSets is the map-of-sets view of a cone product the tests
// compare against hand-written or reference cones.
type memberSets map[uint32]map[uint32]bool

// members reads every row of a product — the list engines' or a dense
// oracle's — back through Members.
func members(cones interface {
	Index() *asindex.Index
	Members(asn uint32) []uint32
}) memberSets {
	out := make(memberSets, cones.Index().Len())
	for _, asn := range cones.Index().ASNs() {
		out[asn] = set(cones.Members(asn)...)
	}
	return out
}

// subset reports whether every member of the ascending list a is in
// the ascending list b.
func subset(a, b []int32) bool {
	for _, m := range a {
		if _, ok := slices.BinarySearch(b, m); !ok {
			return false
		}
	}
	return true
}

func TestRecursive(t *testing.T) {
	r := hierarchy()
	cones := members(r.RecursiveBits())
	if !reflect.DeepEqual(cones[1], set(1, 3, 4, 5)) {
		t.Errorf("cone(1) = %v", cones[1])
	}
	if !reflect.DeepEqual(cones[2], set(2, 4)) {
		t.Errorf("cone(2) = %v", cones[2])
	}
	if !reflect.DeepEqual(cones[3], set(3, 5)) {
		t.Errorf("cone(3) = %v", cones[3])
	}
	if !reflect.DeepEqual(cones[5], set(5)) {
		t.Errorf("cone(5) = %v", cones[5])
	}
}

// TestRecursiveCycle feeds the closure a p2c cycle 1 > 2 > 3 > 1 with a
// customer tail 3 > 4 > 5 and a provider 6 above it: every cycle member
// reaches the whole cycle and the tail, the tail reaches only its own
// customers, and the provider reaches everything.
func TestRecursiveCycle(t *testing.T) {
	r := NewRelations(rels([][2]uint32{{1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 5}, {6, 1}}, nil))
	cones := members(r.RecursiveBits())
	want := memberSets{
		1: set(1, 2, 3, 4, 5),
		2: set(1, 2, 3, 4, 5),
		3: set(1, 2, 3, 4, 5),
		4: set(4, 5),
		5: set(5),
		6: set(1, 2, 3, 4, 5, 6),
	}
	if !reflect.DeepEqual(cones, want) {
		t.Errorf("recursive cones = %v, want %v", cones, want)
	}
}

func dsOf(pathList ...[]uint32) *paths.Dataset {
	d := &paths.Dataset{}
	for i, p := range pathList {
		d.Add(paths.Path{
			Collector: "t",
			Prefix:    netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24),
			ASNs:      p,
		})
	}
	return d
}

func TestBGPObserved(t *testing.T) {
	r := hierarchy()
	// Path 2~1>3>5: from 1 the descending chain reaches 3 and 5; from 3
	// it reaches 5.
	ds := dsOf([]uint32{2, 1, 3, 5})
	cones := members(r.BGPObservedBits(ds))
	if !reflect.DeepEqual(cones[1], set(1, 3, 5)) {
		t.Errorf("BGP cone(1) = %v", cones[1])
	}
	if !reflect.DeepEqual(cones[3], set(3, 5)) {
		t.Errorf("BGP cone(3) = %v", cones[3])
	}
	// 4 was never observed with a customer: self cone only.
	if !reflect.DeepEqual(cones[4], set(4)) {
		t.Errorf("BGP cone(4) = %v", cones[4])
	}
	// 1's link to 4 was not observed: 4 not in 1's BGP cone.
	if cones[1][4] {
		t.Error("unobserved customer 4 in BGP cone(1)")
	}
}

func TestBGPObservedChainStopsAtNonCustomer(t *testing.T) {
	r := hierarchy()
	// Path 5<3~4: hop 3→4 is peer, so 3's chain does not extend to 4...
	// and hop 5→3 is c2p (5 is the customer), so 5 has no chain at all.
	ds := dsOf([]uint32{5, 3, 4})
	cones := members(r.BGPObservedBits(ds))
	if len(cones[5]) != 1 {
		t.Errorf("cone(5) = %v", cones[5])
	}
	if cones[3][4] {
		t.Error("peer 4 leaked into 3's cone")
	}
}

func TestProviderPeerObserved(t *testing.T) {
	r := hierarchy()
	ds := dsOf(
		[]uint32{2, 1, 3, 5}, // enters 1 from peer 2: chain 3,5 credited to 1; enters 3 from provider 1: 5 credited to 3
		[]uint32{5, 3, 4},    // 5 is a VP: no entry; 3 entered from customer 5: nothing credited
	)
	cones := members(r.ProviderPeerObservedBits(ds))
	if !reflect.DeepEqual(cones[1], set(1, 3, 5)) {
		t.Errorf("PP cone(1) = %v", cones[1])
	}
	if !reflect.DeepEqual(cones[3], set(3, 5)) {
		t.Errorf("PP cone(3) = %v", cones[3])
	}
	// VP-position chains are not credited in PP cones.
	vpOnly := members(r.ProviderPeerObservedBits(dsOf([]uint32{1, 3, 5})))
	if len(vpOnly[1]) != 1 {
		t.Errorf("PP cone(1) from VP position = %v", vpOnly[1])
	}
	// But BGP-observed credits them.
	bgp := members(r.BGPObservedBits(dsOf([]uint32{1, 3, 5})))
	if !reflect.DeepEqual(bgp[1], set(1, 3, 5)) {
		t.Errorf("BGP cone(1) from VP position = %v", bgp[1])
	}
}

func TestSizesAndPrefixWeighted(t *testing.T) {
	r := hierarchy()
	cones := r.RecursiveBits()
	sizes := cones.Sizes()
	if sizes[1] != 4 || sizes[5] != 1 {
		t.Errorf("sizes = %v", sizes)
	}
	// Positions are ASNs 1..5 in order; AS 2 originates nothing.
	weighted := cones.WeightedSizes([]int64{10, 0, 2, 3, 1})
	if weighted[0] != 16 {
		t.Errorf("prefix-weighted cone(1) = %d", weighted[0])
	}
	if weighted[2] != 3 {
		t.Errorf("prefix-weighted cone(3) = %d", weighted[2])
	}
}

func TestRank(t *testing.T) {
	sizes := map[uint32]int{1: 10, 2: 10, 3: 50}
	td := map[uint32]int{1: 5, 2: 9}
	rank := Rank(sizes, td)
	if !reflect.DeepEqual(rank, []uint32{3, 2, 1}) {
		t.Errorf("rank = %v", rank)
	}
	// Nil tie-break map: ASN ascending.
	rank = Rank(map[uint32]int{7: 1, 5: 1}, nil)
	if !reflect.DeepEqual(rank, []uint32{5, 7}) {
		t.Errorf("rank = %v", rank)
	}

	// The ASN-keyed and the position-keyed form agree with a map-probing
	// reference sort on random inputs drawn from ranges small enough to
	// force ties on size, on size and degree, and on neither.
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(200)
		asns := make([]uint32, 0, n)
		sizes, td := map[uint32]int{}, map[uint32]int{}
		for asn := uint32(1); len(asns) < n; asn += 1 + uint32(rng.Intn(3)) {
			asns = append(asns, asn)
			sizes[asn] = rng.Intn(4)
			if rng.Intn(3) > 0 {
				td[asn] = rng.Intn(3)
			}
		}
		want := append([]uint32(nil), asns...)
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if sizes[a] != sizes[b] {
				return sizes[a] > sizes[b]
			}
			if td[a] != td[b] {
				return td[a] > td[b]
			}
			return a < b
		})
		if got := Rank(sizes, td); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Rank = %v, want %v", round, got, want)
		}
		szPos, tdPos := make([]int32, n), make([]int32, n)
		for i, asn := range asns {
			szPos[i], tdPos[i] = int32(sizes[asn]), int32(td[asn])
		}
		for i, p := range RankPositions(szPos, tdPos) {
			if asns[p] != want[i] {
				t.Fatalf("round %d: RankPositions[%d] = AS %d, want AS %d", round, i, asns[p], want[i])
			}
		}
	}
}

// comparatorRank is RankPositions as a comparison sort over the AS Rank
// comparator — the implementation the radix sort replaced, kept as its
// reference.
func comparatorRank[T cmp.Ordered](sizes, transitDegree []T) []int32 {
	rank := make([]int32, len(sizes))
	for i := range rank {
		rank[i] = int32(i)
	}
	slices.SortFunc(rank, func(a, b int32) int {
		if sizes[a] != sizes[b] {
			return cmp.Compare(sizes[b], sizes[a])
		}
		if transitDegree[a] != transitDegree[b] {
			return cmp.Compare(transitDegree[b], transitDegree[a])
		}
		return cmp.Compare(a, b)
	})
	return rank
}

// TestRankPositionsEqualsComparatorSort holds the radix sort to the
// comparator sort at both instantiations: no positions, one, every key
// tied, keys drawn from a few values (ties on size, on size and degree),
// and keys at the ends of their type — a crafted segment's transit
// degree can be any int32, and the ASN-keyed Rank passes ints.
func TestRankPositionsEqualsComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	extremes32 := []int32{math.MinInt32, math.MinInt32 + 1, -256, -1, 0, 1, 255, 256, 1 << 16, math.MaxInt32 - 1, math.MaxInt32}
	extremes := []int{math.MinInt64, math.MinInt32 - 1, -1 << 40, -1, 0, 1, math.MaxInt32 + 1, 1 << 40, math.MaxInt64}
	draw32 := func(n int, from []int32) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = from[rng.Intn(len(from))]
		}
		return out
	}
	check := func(name string, got, want []int32) {
		t.Helper()
		if !slices.Equal(got, want) || got == nil {
			t.Errorf("%s: RankPositions = %v, the comparator sort gives %v", name, got, want)
		}
	}
	check32 := func(name string, sz, td []int32) {
		t.Helper()
		check(name, RankPositions(sz, td), comparatorRank(sz, td))
	}
	for _, n := range []int{0, 1, 2, 7, 300, 5000} {
		tied := make([]int32, n)
		for i := range tied {
			tied[i] = 7
		}
		check32(fmt.Sprintf("n=%d all tied", n), tied, tied)
		for round := 0; round < 4; round++ {
			few := []int32{0, 1, 2, 3}
			check32(fmt.Sprintf("n=%d few values", n), draw32(n, few), draw32(n, few))
			check32(fmt.Sprintf("n=%d int32 extremes", n), draw32(n, extremes32), draw32(n, extremes32))
			sz, td := make([]int32, n), make([]int32, n)
			for i := range sz {
				sz[i], td[i] = int32(rng.Uint32()), int32(rng.Uint32())
			}
			check32(fmt.Sprintf("n=%d any int32", n), sz, td)
			wide, wideTD := make([]int, n), make([]int, n)
			for i := range wide {
				wide[i], wideTD[i] = extremes[rng.Intn(len(extremes))], extremes[rng.Intn(len(extremes))]
			}
			check(fmt.Sprintf("n=%d int beyond int32", n), RankPositions(wide, wideTD), comparatorRank(wide, wideTD))
		}
	}
}

// rankInput is a 5k-position rank input shaped like a real epoch's: most
// cones are the AS alone and most ASes transit nothing, a few are large.
func rankInput(n int) (sizes, transitDegree []int32) {
	rng := rand.New(rand.NewSource(5))
	sizes, transitDegree = make([]int32, n), make([]int32, n)
	for i := range sizes {
		sizes[i] = 1
		if rng.Intn(5) == 0 {
			sizes[i] += int32(rng.ExpFloat64() * 40)
			transitDegree[i] = int32(rng.Intn(60))
		}
	}
	return sizes, transitDegree
}

// BenchmarkRankPositions ranks 5 000 positions, what the warehouse does
// for every epoch it replays and Compose for every epoch it builds.
func BenchmarkRankPositions(b *testing.B) {
	sizes, td := rankInput(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rankSink = RankPositions(sizes, td)
	}
}

var rankSink []int32

func TestRelOrientationAndASes(t *testing.T) {
	r := hierarchy()
	if r.Rel(1, 3) != topology.P2C || r.Rel(3, 1) != topology.C2P {
		t.Error("Rel orientation wrong")
	}
	if r.Rel(1, 2) != topology.P2P {
		t.Error("peer rel wrong")
	}
	if r.Rel(1, 99) != topology.None {
		t.Error("missing link should be None")
	}
	if !reflect.DeepEqual(r.ASes(), []uint32{1, 2, 3, 4, 5}) {
		t.Errorf("ASes = %v", r.ASes())
	}
}

// TestConeNesting holds the paper's containment and the product's own
// invariants on the rows themselves, over 20 generated Internets: PP ⊆
// BGP-observed ⊆ recursive row for row, self a member of every row of
// every product (the refcounted PairCounts rows included), the
// recursive closure monotone under one added p2c link, and every engine
// call returning lists nobody else holds.
func TestConeNesting(t *testing.T) {
	var recTotal, ppTotal int
	for seed := int64(1); seed <= 20; seed++ {
		res := inferredCorpus(t, seed, 150)
		r := NewRelations(res.Rels)
		rec := r.RecursiveBits()
		bgp := r.BGPObservedBits(res.Dataset)
		pp := r.ProviderPeerObservedBits(res.Dataset)
		pc := NewPairCounts()
		for _, p := range res.Dataset.Paths {
			pc.Credit(res.Rels, p.ASNs, 1)
		}
		counted := pc.Rows(r.Index())

		for p := range int32(r.Index().Len()) {
			if !subset(pp.Row(p), bgp.Row(p)) || !subset(bgp.Row(p), rec.Row(p)) {
				t.Fatalf("seed %d: row %d breaks PP ⊆ BGP-observed ⊆ recursive", seed, p)
			}
		}
		for _, asn := range r.ASes() {
			for _, bs := range []interface{ Contains(asn, member uint32) bool }{rec, bgp, pp, counted} {
				if !bs.Contains(asn, asn) {
					t.Fatalf("seed %d: AS %d missing from its own cone", seed, asn)
				}
			}
		}
		for _, c := range rec.Sizes() {
			recTotal += c
		}
		for _, c := range pp.Sizes() {
			ppTotal += c
		}

		// One more p2c link between two interned, so far unlinked ASes
		// (cycle or not) never clears a recursive bit.
		rng := rand.New(rand.NewSource(seed))
		asns := r.ASes()
		grown := make(map[paths.Link]topology.Relationship, len(res.Rels)+1)
		for l, rel := range res.Rels {
			grown[l] = rel
		}
		for {
			l := paths.NewLink(asns[rng.Intn(len(asns))], asns[rng.Intn(len(asns))])
			if _, linked := grown[l]; l.A != l.B && !linked {
				grown[l] = []topology.Relationship{topology.P2C, topology.C2P}[rng.Intn(2)]
				break
			}
		}
		after := NewRelations(grown).RecursiveBits()
		for p := range int32(r.Index().Len()) {
			if !subset(rec.Row(p), after.Row(p)) {
				t.Fatalf("seed %d: adding a p2c link took a member out of recursive cone %d", seed, p)
			}
		}

		again := r.ProviderPeerObservedBits(res.Dataset)
		if !reflect.DeepEqual(again, pp) {
			t.Fatalf("seed %d: a second ProviderPeerObservedBits call computed different cones", seed)
		}
		if &again.members[0] == &pp.members[0] || &again.start[0] == &pp.start[0] {
			t.Fatalf("seed %d: two ProviderPeerObservedBits calls share one product", seed)
		}
	}
	// The gap must be real: total recursive mass strictly exceeds total
	// PP mass.
	if recTotal <= ppTotal {
		t.Errorf("recursive total %d should exceed PP total %d", recTotal, ppTotal)
	}
}

// TestConeAgainstGroundTruth checks that the PP cone of the top AS is a
// large subset of its true cone.
func TestConeAgainstGroundTruth(t *testing.T) {
	p := topology.DefaultParams(78)
	p.ASes = 500
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(78)
	opts.NumVPs = 25
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	res := core.Infer(clean, core.Options{})
	rec := members(NewRelations(res.Rels).RecursiveBits())

	// Compare recursive inferred cones vs ground-truth cones across the
	// inferred clique. Per-member recall varies with VP visibility (a
	// multihomed customer routed via its other provider leaves no trace
	// of this link), so assert aggregate recall and precision.
	var hits, truthTotal, inferredTotal int
	for _, t1 := range res.Clique {
		truth := topo.TrueCone(t1)
		inferred := rec[t1]
		for member := range inferred {
			if truth[member] {
				hits++
			}
		}
		truthTotal += len(truth)
		inferredTotal += len(inferred)
	}
	if recall := float64(hits) / float64(truthTotal); recall < 0.7 {
		t.Errorf("aggregate clique cone recall = %.3f, want >= 0.7", recall)
	}
	if precision := float64(hits) / float64(inferredTotal); precision < 0.9 {
		t.Errorf("aggregate clique cone precision = %.3f, want >= 0.9", precision)
	}
}

func TestAddressAndPrefixCounts(t *testing.T) {
	ds := &paths.Dataset{}
	add := func(prefix string, asns ...uint32) {
		ds.Add(paths.Path{Collector: "c", Prefix: netip.MustParsePrefix(prefix), ASNs: asns})
	}
	add("10.0.0.0/24", 1, 2, 5)
	add("10.0.0.0/24", 3, 2, 5) // same prefix, other VP: counted once
	add("10.0.1.0/25", 1, 2, 5)
	add("10.9.0.0/16", 1, 2, 6)
	pc := PrefixCounts(ds)
	if pc[5] != 2 || pc[6] != 1 {
		t.Errorf("prefix counts = %v", pc)
	}
	ac := AddressCounts(ds)
	if ac[5] != 256+128 {
		t.Errorf("addresses(5) = %d", ac[5])
	}
	if ac[6] != 65536 {
		t.Errorf("addresses(6) = %d", ac[6])
	}
}

// TestOneRoutedPrefixCountsOnce: a prefix counts in its canonical form,
// so the ways one /24 can be written — plain, IPv4-mapped, host bits set,
// both at once — are one prefix of 256 addresses, and only a prefix
// that differs once canonical adds to the counts.
func TestOneRoutedPrefixCountsOnce(t *testing.T) {
	for _, tc := range []struct {
		name        string
		prefixes    []string
		prefixCount int
		addresses   int64
	}{
		{"plain", []string{"1.2.3.0/24"}, 1, 256},
		{"plain and mapped", []string{"1.2.3.0/24", "::ffff:1.2.3.0/120"}, 1, 256},
		{"plain and host bits", []string{"1.2.3.0/24", "1.2.3.4/24"}, 1, 256},
		{"all three", []string{"1.2.3.0/24", "::ffff:1.2.3.0/120", "1.2.3.4/24"}, 1, 256},
		{"mapped with host bits", []string{"::ffff:1.2.3.9/120", "1.2.3.0/24"}, 1, 256},
		{"another length", []string{"1.2.3.0/24", "1.2.3.4/25"}, 2, 256 + 128},
		{"IPv6 with host bits", []string{"2001:db8::1/32", "2001:db8::/32"}, 1, 0},
		{"mapped shorter than /96", []string{"::ffff:0.0.0.0/64", "::/64"}, 1, 0},
		{"invalid", []string{""}, 0, 0},
	} {
		ds := &paths.Dataset{}
		for i, s := range tc.prefixes {
			var p netip.Prefix
			if s != "" {
				p = netip.MustParsePrefix(s)
			}
			ds.Add(paths.Path{Collector: "c", Prefix: p, ASNs: []uint32{uint32(1 + i), 10, 20}})
		}
		if got := PrefixCounts(ds)[20]; got != tc.prefixCount {
			t.Errorf("%s: %d prefixes for origin 20, want %d", tc.name, got, tc.prefixCount)
		}
		if got := AddressCounts(ds)[20]; got != tc.addresses {
			t.Errorf("%s: %d addresses for origin 20, want %d", tc.name, got, tc.addresses)
		}
	}
}

func TestAddressCountsIs4In6(t *testing.T) {
	ds := &paths.Dataset{}
	add := func(prefix string, asns ...uint32) {
		ds.Add(paths.Path{Collector: "c", Prefix: netip.MustParsePrefix(prefix), ASNs: asns})
	}
	// MRT feeds can carry IPv4 prefixes in IPv4-mapped IPv6 form; the
	// embedded /24 must be counted like its plain-IPv4 twin.
	add("::ffff:10.0.0.0/120", 1, 2, 5)
	if got := AddressCounts(ds)[5]; got != 256 {
		t.Errorf("addresses(5) from 4-in-6 prefix = %d, want 256", got)
	}
	// The plain-IPv4 form of the same prefix is a duplicate, not new
	// address space.
	add("10.0.0.0/24", 1, 2, 5)
	add("10.1.0.0/24", 1, 2, 5)
	if got := AddressCounts(ds)[5]; got != 512 {
		t.Errorf("addresses(5) after plain duplicate + new /24 = %d, want 512", got)
	}
	// Native IPv6 and mapped prefixes shorter than /96 stay excluded.
	add("2001:db8::/32", 1, 2, 6)
	add("::ffff:0.0.0.0/64", 1, 2, 6)
	if got := AddressCounts(ds)[6]; got != 0 {
		t.Errorf("addresses(6) from IPv6 prefixes = %d, want 0", got)
	}
}

func TestAddressWeightedCones(t *testing.T) {
	weighted := hierarchy().RecursiveBits().WeightedSizes([]int64{1000, 0, 256, 512, 128})
	if weighted[0] != 1000+256+512+128 {
		t.Errorf("address-weighted cone(1) = %d", weighted[0])
	}
	if weighted[2] != 256+128 {
		t.Errorf("address-weighted cone(3) = %d", weighted[2])
	}
}

// TestWritePPDCGolden pins the ppdc-ases text: comments first, one
// line per AS ascending, the AS then its members ascending.
func TestWritePPDCGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePPDC(&buf, hierarchy().RecursiveBits(), "ppdc-ases test", "second"); err != nil {
		t.Fatal(err)
	}
	const want = "# ppdc-ases test\n# second\n" +
		"1 1 3 4 5\n" +
		"2 2 4\n" +
		"3 3 5\n" +
		"4 4\n" +
		"5 5\n"
	if got := buf.String(); got != want {
		t.Errorf("WritePPDC wrote:\n%s\nwant:\n%s", got, want)
	}
}
