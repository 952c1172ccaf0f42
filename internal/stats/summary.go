package stats

import (
	"math"
	"sort"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N            int
	Min, Max     float64
	Mean, Median float64
	P90, P99     float64
	Stddev       float64
	Sum          float64
}

// Summarize computes a Summary of xs. An empty sample yields the zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	var sum, sq float64
	for _, x := range s {
		sum += x
		sq += x * x
	}
	n := float64(len(s))
	mean := sum / n
	variance := sq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   mean,
		Median: Quantile(s, 0.5),
		P90:    Quantile(s, 0.9),
		P99:    Quantile(s, 0.99),
		Stddev: math.Sqrt(variance),
		Sum:    sum,
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of sorted, using linear
// interpolation between order statistics. sorted must be in ascending
// order and non-empty.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// PearsonLogLog returns the Pearson correlation of log(x) vs log(y),
// skipping pairs where either value is <= 0. It is the correlation used
// for degree-vs-cone comparisons, where both quantities are heavy-tailed.
func PearsonLogLog(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if i < len(ys) && xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	return Pearson(lx, ly)
}

// Pearson returns the Pearson correlation coefficient of xs and ys.
// It returns NaN if fewer than two pairs or either variance is zero.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n < 2 {
		return math.NaN()
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}

// Gini returns the Gini coefficient of xs (0 = perfectly even, →1 =
// concentrated), used to quantify customer-cone concentration. Negative
// values are treated as zero; an empty or all-zero sample yields 0.
func Gini(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	var cum, total float64
	for i, x := range s {
		if x < 0 {
			x = 0
		}
		total += x
		cum += x * float64(i+1)
	}
	if total == 0 {
		return 0
	}
	n := float64(len(s))
	return (2*cum - (n+1)*total) / (n * total)
}
