package stats

import (
	"math"
	"sort"
)

// KendallTau returns the Kendall tau-b rank correlation between xs and ys
// (tie-corrected), computed in O(n log n). It returns NaN when fewer than
// two pairs are given or when either variable is constant.
//
// Tau-b = (C - D) / sqrt((n0 - n1)(n0 - n2)) where C/D are concordant and
// discordant pair counts, n0 = n(n-1)/2, and n1/n2 are tied-pair counts in
// x and y respectively.
func KendallTau(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n < 2 {
		return math.NaN()
	}

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Sort by x, then by y to make x-ties well ordered.
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if xs[ia] != xs[ib] {
			return xs[ia] < xs[ib]
		}
		return ys[ia] < ys[ib]
	})

	y := make([]float64, n)
	for i, id := range idx {
		y[i] = ys[id]
	}

	n0 := float64(n) * float64(n-1) / 2

	// Tied pairs in x, and joint ties (same x AND y), counted over runs of
	// equal x in the sorted order.
	var n1, n3 float64
	for i := 0; i < n; {
		j := i
		for j < n && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		run := float64(j - i)
		n1 += run * (run - 1) / 2
		// Within this x-run, count ties in y (runs are y-sorted).
		for a := i; a < j; {
			b := a
			for b < j && y[b] == y[a] {
				b++
			}
			r := float64(b - a)
			n3 += r * (r - 1) / 2
			a = b
		}
		i = j
	}

	// Tied pairs in y overall.
	ysorted := make([]float64, n)
	copy(ysorted, y)
	sort.Float64s(ysorted)
	var n2 float64
	for i := 0; i < n; {
		j := i
		for j < n && ysorted[j] == ysorted[i] {
			j++
		}
		run := float64(j - i)
		n2 += run * (run - 1) / 2
		i = j
	}

	// Discordant pairs = inversions of y in x-order, excluding pairs tied
	// in x (which were sorted by y, hence contribute no inversions).
	d := float64(countInversions(y))

	c := n0 - n1 - n2 + n3 - d // concordant pairs

	den := math.Sqrt((n0 - n1) * (n0 - n2))
	if den == 0 {
		return math.NaN()
	}
	return (c - d) / den
}

// countInversions returns the number of pairs i<j with y[i] > y[j],
// via merge sort. It mutates y.
func countInversions(y []float64) int64 {
	buf := make([]float64, len(y))
	return mergeCount(y, buf)
}

func mergeCount(y, buf []float64) int64 {
	n := len(y)
	if n < 2 {
		return 0
	}
	mid := n / 2
	inv := mergeCount(y[:mid], buf[:mid]) + mergeCount(y[mid:], buf[mid:])
	copy(buf[:n], y)
	i, j := 0, mid
	for k := 0; k < n; k++ {
		switch {
		case i >= mid:
			y[k] = buf[j]
			j++
		case j >= n:
			y[k] = buf[i]
			i++
		case buf[i] <= buf[j]:
			y[k] = buf[i]
			i++
		default:
			y[k] = buf[j]
			j++
			inv += int64(mid - i)
		}
	}
	return inv
}
