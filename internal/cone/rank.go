package cone

import "slices"

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
	return RankPositionsInto(make([]int32, len(sizes)), make([]int32, len(sizes)), sizes, transitDegree)
}

// RankPositionsInto is RankPositions over the caller's buffers, each
// len(sizes) long: it returns one of them holding the ranking, and
// leaves the other's contents unspecified. It allocates nothing.
func RankPositionsInto[T int32 | int](rank, scratch []int32, sizes, transitDegree []T) []int32 {
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
