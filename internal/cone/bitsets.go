package cone

import (
	"math/bits"
	"slices"

	"github.com/asrank-go/asrank/internal/asindex"
	"github.com/asrank-go/asrank/internal/pool"
)

// BitSets is the crediting engines' working form of a cone product:
// the interned AS index and one contiguous word slab holding a bitset
// row of interned positions per AS. Row i occupies words [i*wps,
// (i+1)*wps) with wps = (Len()+63)/64. It is n × n bits whatever the
// cones hold, so a product that outlives its computation is packed into
// member lists (Rows) instead of kept.
type BitSets struct {
	idx   *asindex.Index
	words []uint64
	wps   int
}

// newBitSets returns an all-empty product over idx.
func newBitSets(idx *asindex.Index) *BitSets {
	wps := (idx.Len() + 63) / 64
	return &BitSets{idx: idx, words: make([]uint64, idx.Len()*wps), wps: wps}
}

// Index returns the dense ASN index the cones are expressed in.
func (bs *BitSets) Index() *asindex.Index { return bs.idx }

// Len returns the number of ASes with a cone.
func (bs *BitSets) Len() int { return bs.idx.Len() }

// row views position i's cone.
func (bs *BitSets) row(i int32) asindex.Bitset {
	lo := int(i) * bs.wps
	return asindex.Bitset(bs.words[lo : lo+bs.wps : lo+bs.wps])
}

// Contains reports whether member is in asn's cone.
//
//asrank:hotpath
func (bs *BitSets) Contains(asn, member uint32) bool {
	ai, ok1 := bs.idx.Pos(asn)
	mi, ok2 := bs.idx.Pos(member)
	return ok1 && ok2 && bs.row(ai).Contains(mi)
}

// Sizes returns per-AS cone sizes in number of ASes.
func (bs *BitSets) Sizes() map[uint32]int {
	out := make(map[uint32]int, bs.Len())
	for i, asn := range bs.idx.ASNs() {
		out[asn] = bs.row(int32(i)).Count()
	}
	return out
}

// WeightedSizes sums a per-position weight over each cone: out[i] is
// the total weight of cone i's members, where w is indexed by interned
// position (w[i] = 0 for unweighted ASes) — prefix- or address-weighted
// cone sizes in one parallel pass over the slab. w must have at least
// Len() entries.
func (bs *BitSets) WeightedSizes(w []int64) []int64 {
	n := bs.Len()
	out := make([]int64, n)
	pool.Chunks(0, n, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var sum int64
			for wi, word := range bs.row(int32(i)) {
				for word != 0 {
					sum += w[wi<<6+bits.TrailingZeros64(word)]
					word &= word - 1
				}
			}
			out[i] = sum
		}
	})
	return out
}

// Members returns asn's cone membership, ascending, or nil when asn is
// not interned.
func (bs *BitSets) Members(asn uint32) []uint32 {
	ai, ok := bs.idx.Pos(asn)
	if !ok {
		return nil
	}
	b := bs.row(ai)
	out := make([]uint32, 0, b.Count())
	b.ForEach(func(i int32) { out = append(out, bs.idx.ASN(i)) })
	return out
}

// RankPositions orders positions [0, len(sizes)) by decreasing cone
// size, tie-broken by decreasing transit degree and then ascending
// position — the AS Rank ordering, and a total one, so the result does
// not depend on the sort algorithm. Positions of an interned index are
// ASN-ordered, so the last tiebreak is ascending ASN.
//
// It is a least-significant-key-first radix sort: stable passes from
// position order, by transit degree and then by size, each on a key
// whose ascending order is the value's descending one. It allocates the
// result and one scratch of the same length, nothing else.
func RankPositions[T int32 | int](sizes, transitDegree []T) []int32 {
	rank, scratch := make([]int32, len(sizes)), make([]int32, len(sizes))
	for i := range rank {
		rank[i] = int32(i)
	}
	rank, scratch = sortDescending(rank, scratch, transitDegree)
	rank, _ = sortDescending(rank, scratch, sizes)
	return rank
}

// descendingKey maps v to an unsigned key that sorts ascending as v
// sorts descending: the complement of v's order-preserving image (v
// with its sign bit flipped).
func descendingKey[T int32 | int](v T) uint64 {
	return ^(uint64(int64(v)) ^ 1<<63)
}

// sortDescending stably reorders the positions in src by decreasing
// key[p], one byte of descendingKey a pass, skipping the bytes every key
// shares. It returns the sorted positions and the other buffer, the two
// being src and dst in some order.
func sortDescending[T int32 | int](src, dst []int32, key []T) (sorted, spare []int32) {
	if len(src) == 0 {
		return src, dst
	}
	first, differ := descendingKey(key[src[0]]), uint64(0)
	for _, p := range src {
		differ |= descendingKey(key[p]) ^ first
	}
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(differ>>shift) == 0 {
			continue
		}
		var at [257]int
		for _, p := range src {
			at[int(byte(descendingKey(key[p])>>shift))+1]++
		}
		for b := 1; b < len(at); b++ {
			at[b] += at[b-1]
		}
		for _, p := range src {
			b := byte(descendingKey(key[p]) >> shift)
			dst[at[b]] = p
			at[b]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// Rank is RankPositions for ASN-keyed sizes — any cone weighting, not
// only a product's own Sizes. ASes missing from transitDegree (which
// may be nil) tie-break as degree zero.
func Rank(sizes map[uint32]int, transitDegree map[uint32]int) []uint32 {
	asns := make([]uint32, 0, len(sizes))
	for asn := range sizes {
		asns = append(asns, asn)
	}
	slices.Sort(asns)
	sz, td := make([]int, len(asns)), make([]int, len(asns))
	for i, asn := range asns {
		sz[i], td[i] = sizes[asn], transitDegree[asn]
	}
	out := make([]uint32, len(asns))
	for i, p := range RankPositions(sz, td) {
		out[i] = asns[p]
	}
	return out
}
