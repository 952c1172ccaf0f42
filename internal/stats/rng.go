// Package stats provides the small statistical toolkit used across the
// module: a deterministic random source, distribution summaries, rank
// correlation, and plain-text table/series rendering for the experiment
// harness.
//
// Everything here is deterministic given a seed so that topology
// generation, simulation and experiments are exactly reproducible.
package stats

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source with the sampling helpers the
// generator and simulator need. It is not safe for concurrent use; create
// one per goroutine with Split.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent RNG from r, keyed by label, without
// disturbing r's own stream more than one draw.
func (r *RNG) Split(label int64) *RNG {
	return NewRNG(r.r.Int63() ^ (label * 0x9e3779b97f4a7c))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return r.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (r *RNG) Int63() int64 { return r.r.Int63() }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 { return r.r.Float64() }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.r.Float64() < p }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.r.Shuffle(n, swap) }

// Range returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (r *RNG) Range(lo, hi int) int {
	if hi < lo {
		panic("stats: invalid range")
	}
	return lo + r.r.Intn(hi-lo+1)
}

// Geometric returns a geometric variate with success probability p,
// counting the number of failures before the first success (support 0,
// 1, 2, ...). p must be in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	u := r.r.Float64()
	return int(math.Floor(math.Log1p(-u) / math.Log1p(-p)))
}

// Pareto returns a discrete power-law variate in [min, max]: an integer k
// drawn with probability proportional to k^(-alpha). Used for degree
// targets in the topology generator.
func (r *RNG) Pareto(alpha float64, min, max int) int {
	if min >= max {
		return min
	}
	// Inverse-CDF sampling of the continuous Pareto, clamped.
	lo, hi := float64(min), float64(max)+1
	u := r.r.Float64()
	a := 1 - alpha
	var x float64
	if math.Abs(a) < 1e-9 {
		x = lo * math.Exp(u*math.Log(hi/lo))
	} else {
		x = math.Pow(u*(math.Pow(hi, a)-math.Pow(lo, a))+math.Pow(lo, a), 1/a)
	}
	k := int(x)
	if k < min {
		k = min
	}
	if k > max {
		k = max
	}
	return k
}

// WeightedIndex returns an index in [0, len(weights)) drawn with
// probability proportional to weights[i]. Zero and negative weights are
// treated as zero. It panics if the total weight is not positive.
func (r *RNG) WeightedIndex(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("stats: WeightedIndex with non-positive total weight")
	}
	x := r.r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// SampleInts returns k distinct integers drawn uniformly from [0, n).
// If k >= n it returns all of [0, n) in random order.
func (r *RNG) SampleInts(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	// Floyd's algorithm.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
