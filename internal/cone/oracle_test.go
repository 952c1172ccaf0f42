package cone

import (
	"math/bits"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"github.com/asrank-go/asrank/internal/asindex"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/pool"
)

// This file keeps the dense engines the list engines replaced, as the
// reference they are held to: a cone product as one n × n-bit slab,
// the closure setting bits as it walks, and the observed crediting
// setting each chain into per-shard bitset rows merged by OR.

// bitset is a fixed-capacity set of dense positions backed by packed
// 64-bit words.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) Set(i int32) { b[i>>6] |= 1 << (uint(i) & 63) }

// TrySet adds position i and reports whether it was newly added.
func (b bitset) TrySet(i int32) bool {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b[w]&m != 0 {
		return false
	}
	b[w] |= m
	return true
}

func (b bitset) Contains(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Or merges o into b; the two must have equal capacity.
func (b bitset) Or(o bitset) {
	for i, w := range o {
		b[i] |= w
	}
}

func (b bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls fn for every set position in ascending order.
func (b bitset) ForEach(fn func(i int32)) {
	for wi, w := range b {
		for ; w != 0; w &= w - 1 {
			fn(int32(wi<<6 + bits.TrailingZeros64(w)))
		}
	}
}

// bitSets is a dense cone product: row i of the slab is position i's
// cone, words [i*wps, (i+1)*wps).
type bitSets struct {
	idx   *asindex.Index
	words []uint64
	wps   int
}

func newBitSets(idx *asindex.Index) *bitSets {
	wps := (idx.Len() + 63) / 64
	return &bitSets{idx: idx, words: make([]uint64, idx.Len()*wps), wps: wps}
}

func (bs *bitSets) Index() *asindex.Index { return bs.idx }

func (bs *bitSets) Len() int { return bs.idx.Len() }

func (bs *bitSets) row(i int32) bitset {
	lo := int(i) * bs.wps
	return bitset(bs.words[lo : lo+bs.wps : lo+bs.wps])
}

func (bs *bitSets) Contains(asn, member uint32) bool {
	ai, ok1 := bs.idx.Pos(asn)
	mi, ok2 := bs.idx.Pos(member)
	return ok1 && ok2 && bs.row(ai).Contains(mi)
}

func (bs *bitSets) Sizes() map[uint32]int {
	out := make(map[uint32]int, bs.Len())
	for i, asn := range bs.idx.ASNs() {
		out[asn] = bs.row(int32(i)).Count()
	}
	return out
}

func (bs *bitSets) WeightedSizes(w []int64) []int64 {
	out := make([]int64, bs.Len())
	for i := range out {
		bs.row(int32(i)).ForEach(func(m int32) { out[i] += w[m] })
	}
	return out
}

func (bs *bitSets) Members(asn uint32) []uint32 {
	ai, ok := bs.idx.Pos(asn)
	if !ok {
		return nil
	}
	b := bs.row(ai)
	out := make([]uint32, 0, b.Count())
	b.ForEach(func(i int32) { out = append(out, bs.idx.ASN(i)) })
	return out
}

// denseClosure is the recursive engine as a slab: one walk per AS that
// stops at bits it has already set.
func denseClosure(r *Relations) *bitSets {
	cones := newBitSets(r.idx)
	pool.Chunks(0, r.idx.Len(), 64, func(lo, hi int) {
		var stack []int32
		for i := int32(lo); i < int32(hi); i++ {
			b := cones.row(i)
			b.Set(i)
			stack = append(stack[:0], i)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, c := range r.custIdx[x] {
					if b.TrySet(c) {
						stack = append(stack, c)
					}
				}
			}
		}
	})
	return cones
}

// denseObserved is the observed crediting as a slab: each shard sets
// its credited chains into rows of its own, and the shards are OR-ed
// together in shard order, self set in every row.
func denseObserved(r *Relations, count int, hops func(int) []uint32, needEntry bool) *bitSets {
	n := r.idx.Len()
	shards := make([][]bitset, pool.NumShards(0, count))
	pool.Range(0, count, func(shard, lo, hi int) {
		local := make([]bitset, n)
		var walk chainWalk
		for i := lo; i < hi; i++ {
			asns := hops(i)
			for j, end := range walk.credited(r.rel, asns, needEntry) {
				if end == j {
					continue
				}
				owner, _ := r.idx.Pos(asns[j])
				if local[owner] == nil {
					local[owner] = newBitset(n)
				}
				for _, member := range asns[j+1 : end+1] {
					m, _ := r.idx.Pos(member)
					local[owner].Set(m)
				}
			}
		}
		shards[shard] = local
	})
	cones := newBitSets(r.idx)
	for i := int32(0); i < int32(n); i++ {
		b := cones.row(i)
		for _, local := range shards {
			if local[i] != nil {
				b.Or(local[i])
			}
		}
		b.Set(i)
	}
	return cones
}

// TestBitsetBasics holds the oracle's own set: TrySet reports a new
// position once, Or merges, ForEach visits ascending across words.
func TestBitsetBasics(t *testing.T) {
	b := newBitset(130)
	for _, i := range []int32{0, 63, 64, 129} {
		if b.Contains(i) {
			t.Errorf("fresh bitset contains %d", i)
		}
		if !b.TrySet(i) {
			t.Errorf("TrySet(%d) on empty = false", i)
		}
		if b.TrySet(i) {
			t.Errorf("TrySet(%d) twice = true", i)
		}
	}
	o := newBitset(130)
	o.Set(1)
	b.Or(o)
	if b.Count() != 5 {
		t.Errorf("Count = %d, want 5", b.Count())
	}
	var got []int32
	b.ForEach(func(i int32) { got = append(got, i) })
	if !slices.Equal(got, []int32{0, 1, 63, 64, 129}) {
		t.Errorf("ForEach order = %v", got)
	}
}

// oracleOriginWeights is originWeights as one set of 24-byte
// (origin, prefix) keys, every family alike: the implementation the
// two-level set replaced.
func oracleOriginWeights[W int | int64](ds *paths.Dataset, weigh func(netip.Prefix) (netip.Prefix, W)) map[uint32]W {
	seen := make(map[paths.OriginPrefix]struct{})
	out := make(map[uint32]W)
	for _, p := range ds.Paths {
		prefix, w := weigh(p.Prefix)
		fp := paths.FlatPrefix(prefix)
		if !fp.IsValid() {
			continue
		}
		k := fp.WithOrigin(p.Origin())
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out[k.Origin] += w
	}
	return out
}

// mixedPrefixCorpus draws n rows over a few origins and prefixes of
// every shape the weights tell apart: IPv4 prefixes several origins
// announce (MOAS), one prefix written plain, with host bits and
// IPv4-mapped, mapped prefixes shorter than /96, IPv6, and invalid
// prefixes with and without an address.
func mixedPrefixCorpus(rng *rand.Rand, n int) *paths.Dataset {
	prefixes := []netip.Prefix{
		{},
		netip.PrefixFrom(netip.MustParseAddr("10.0.0.0"), 99),
		netip.PrefixFrom(netip.MustParseAddr("2001:db8::"), 200),
		netip.MustParsePrefix("10.0.0.0/24"),
		netip.MustParsePrefix("10.0.0.7/24"),
		netip.MustParsePrefix("::ffff:10.0.0.0/120"),
		netip.MustParsePrefix("::ffff:10.0.0.0/24"),
		netip.MustParsePrefix("::ffff:10.0.0.0/96"),
		netip.MustParsePrefix("0.0.0.0/0"),
		netip.MustParsePrefix("255.255.255.255/32"),
		netip.MustParsePrefix("2001:db8::/32"),
		netip.MustParsePrefix("2001:db8::1/32"),
	}
	for i := 0; i < 40; i++ {
		prefixes = append(prefixes, netip.PrefixFrom(netip.AddrFrom4([4]byte{192, 0, byte(i), byte(rng.Intn(2))}), 16+rng.Intn(17)))
	}
	ds := &paths.Dataset{}
	for i := 0; i < n; i++ {
		hops := []uint32{uint32(1 + rng.Intn(5)), uint32(10 + rng.Intn(6))}
		ds.Add(paths.Path{Collector: "c", Prefix: prefixes[rng.Intn(len(prefixes))], ASNs: hops})
	}
	return ds
}

// TestOriginWeightsMatchOracle diffs PrefixCounts and AddressCounts
// against the one-set implementation, on corpora of every prefix shape
// and on a simulated one, whose prefixes are all IPv4. Each corpus is
// also counted shuffled, where few rows repeat the one before, and
// sorted by prefix, where most do.
func TestOriginWeightsMatchOracle(t *testing.T) {
	corpora := []*paths.Dataset{inferredCorpus(t, 3, 300).Dataset}
	for seed := int64(1); seed <= 20; seed++ {
		corpora = append(corpora, mixedPrefixCorpus(rand.New(rand.NewSource(seed)), 1+int(seed)*40))
	}
	rng := rand.New(rand.NewSource(21))
	for _, ds := range corpora {
		shuffled := &paths.Dataset{Paths: slices.Clone(ds.Paths)}
		rng.Shuffle(len(shuffled.Paths), func(i, j int) {
			shuffled.Paths[i], shuffled.Paths[j] = shuffled.Paths[j], shuffled.Paths[i]
		})
		sorted := &paths.Dataset{Paths: slices.Clone(ds.Paths)}
		slices.SortStableFunc(sorted.Paths, func(a, b paths.Path) int {
			return paths.FlatPrefix(a.Prefix).Compare(paths.FlatPrefix(b.Prefix))
		})
		corpora = append(corpora, shuffled, sorted)
	}
	prefixes := func(p netip.Prefix) (netip.Prefix, int) { return paths.CanonicalPrefix(p), 1 }
	addresses := func(p netip.Prefix) (netip.Prefix, int64) {
		p = v4Prefix(p)
		return p, int64(1) << (32 - p.Bits())
	}
	for i, ds := range corpora {
		if got, want := PrefixCounts(ds), oracleOriginWeights(ds, prefixes); !reflect.DeepEqual(got, want) {
			t.Errorf("corpus %d: PrefixCounts = %v, oracle %v", i, got, want)
		}
		if got, want := AddressCounts(ds), oracleOriginWeights(ds, addresses); !reflect.DeepEqual(got, want) {
			t.Errorf("corpus %d: AddressCounts = %v, oracle %v", i, got, want)
		}
	}
}
