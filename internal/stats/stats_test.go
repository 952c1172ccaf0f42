package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Intn(1000) != b.Intn(1000) {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Split(int64(i)).Intn(1<<30) != c.Intn(1<<30) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s1 := r.Split(1)
	s2 := r.Split(2)
	eq := 0
	for i := 0; i < 50; i++ {
		if s1.Intn(1<<20) == s2.Intn(1<<20) {
			eq++
		}
	}
	if eq > 5 {
		t.Errorf("split RNGs look correlated: %d/50 equal draws", eq)
	}
}

func TestRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.Range(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("Range(3,7) = %d out of bounds", v)
		}
	}
	if r.Range(5, 5) != 5 {
		t.Error("Range(5,5) != 5")
	}
	defer func() {
		if recover() == nil {
			t.Error("Range(7,3) did not panic")
		}
	}()
	r.Range(7, 3)
}

func TestGeometric(t *testing.T) {
	r := NewRNG(2)
	if r.Geometric(1) != 0 {
		t.Error("Geometric(1) != 0")
	}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Geometric(0.25)
		if v < 0 {
			t.Fatalf("Geometric returned negative %d", v)
		}
		sum += float64(v)
	}
	mean := sum / n
	// E[failures before success] = (1-p)/p = 3.
	if mean < 2.7 || mean > 3.3 {
		t.Errorf("Geometric(0.25) mean = %.3f, want ≈3", mean)
	}
}

func TestParetoBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 5000; i++ {
		v := r.Pareto(2.1, 1, 500)
		if v < 1 || v > 500 {
			t.Fatalf("Pareto out of bounds: %d", v)
		}
	}
	if r.Pareto(2.1, 7, 7) != 7 {
		t.Error("degenerate Pareto range should return min")
	}
	// Heavy left skew: most mass near min.
	small := 0
	for i := 0; i < 5000; i++ {
		if r.Pareto(2.1, 1, 500) <= 3 {
			small++
		}
	}
	if small < 3000 {
		t.Errorf("Pareto(2.1) mass near min too low: %d/5000 <= 3", small)
	}
}

func TestWeightedIndex(t *testing.T) {
	r := NewRNG(4)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[r.WeightedIndex([]float64{1, 0, 9})]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index selected %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 7.5 || ratio > 11 {
		t.Errorf("weight ratio = %.2f, want ≈9", ratio)
	}
	defer func() {
		if recover() == nil {
			t.Error("all-zero weights did not panic")
		}
	}()
	r.WeightedIndex([]float64{0, 0})
}

func TestSampleInts(t *testing.T) {
	r := NewRNG(5)
	s := r.SampleInts(100, 10)
	if len(s) != 10 {
		t.Fatalf("SampleInts returned %d values, want 10", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 100 {
			t.Fatalf("sample %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample %d", v)
		}
		seen[v] = true
	}
	all := r.SampleInts(5, 10)
	if len(all) != 5 {
		t.Errorf("k>n sample length = %d, want 5", len(all))
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 || s.Sum != 15 {
		t.Errorf("Summarize basic stats wrong: %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2)) > 1e-9 {
		t.Errorf("Stddev = %v, want sqrt(2)", s.Stddev)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Error("empty Summarize should have N=0")
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	if q := Quantile(s, 0); q != 10 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(s, 1); q != 40 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(s, 0.5); q != 25 {
		t.Errorf("median = %v, want 25", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if p := Pearson(xs, xs); math.Abs(p-1) > 1e-12 {
		t.Errorf("self correlation = %v, want 1", p)
	}
	neg := []float64{4, 3, 2, 1}
	if p := Pearson(xs, neg); math.Abs(p+1) > 1e-12 {
		t.Errorf("anti correlation = %v, want -1", p)
	}
	if !math.IsNaN(Pearson(xs[:1], xs[:1])) {
		t.Error("n<2 should be NaN")
	}
	if !math.IsNaN(Pearson(xs, []float64{5, 5, 5, 5})) {
		t.Error("constant y should be NaN")
	}
}

func TestKendallTauPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if tau := KendallTau(xs, xs); math.Abs(tau-1) > 1e-12 {
		t.Errorf("tau identical = %v, want 1", tau)
	}
	rev := []float64{5, 4, 3, 2, 1}
	if tau := KendallTau(xs, rev); math.Abs(tau+1) > 1e-12 {
		t.Errorf("tau reversed = %v, want -1", tau)
	}
	if !math.IsNaN(KendallTau(xs[:1], xs[:1])) {
		t.Error("tau of single pair should be NaN")
	}
	if !math.IsNaN(KendallTau(xs, []float64{2, 2, 2, 2, 2})) {
		t.Error("tau with constant y should be NaN")
	}
}

// kendallNaive is the O(n^2) reference implementation of tau-b.
func kendallNaive(xs, ys []float64) float64 {
	n := len(xs)
	var c, d, tx, ty float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := xs[i] - xs[j]
			dy := ys[i] - ys[j]
			switch {
			case dx == 0 && dy == 0:
				// joint tie: counts in both tx and ty per tau-b definition
				tx++
				ty++
			case dx == 0:
				tx++
			case dy == 0:
				ty++
			case dx*dy > 0:
				c++
			default:
				d++
			}
		}
	}
	n0 := float64(n) * float64(n-1) / 2
	den := math.Sqrt((n0 - tx) * (n0 - ty))
	if den == 0 {
		return math.NaN()
	}
	return (c - d) / den
}

func TestKendallTauMatchesNaive(t *testing.T) {
	r := NewRNG(99)
	for trial := 0; trial < 50; trial++ {
		n := r.Range(2, 60)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			// small integer values to force ties
			xs[i] = float64(r.Intn(8))
			ys[i] = float64(r.Intn(8))
		}
		want := kendallNaive(xs, ys)
		got := KendallTau(xs, ys)
		if math.IsNaN(want) != math.IsNaN(got) {
			t.Fatalf("trial %d: NaN mismatch got=%v want=%v xs=%v ys=%v", trial, got, want, xs, ys)
		}
		if !math.IsNaN(want) && math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: tau=%v want %v\nxs=%v\nys=%v", trial, got, want, xs, ys)
		}
	}
}

func TestCountInversions(t *testing.T) {
	y := []float64{3, 1, 2}
	if inv := countInversions(append([]float64(nil), y...)); inv != 2 {
		t.Errorf("inversions = %d, want 2", inv)
	}
	sortedCheck := append([]float64(nil), y...)
	countInversions(sortedCheck)
	if !sort.Float64sAreSorted(sortedCheck) {
		t.Error("countInversions should leave slice sorted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "AS", "cone")
	tb.AddRow(uint32(174), 3.0)
	tb.AddRow(uint32(3356), 2.5)
	out := tb.String()
	for _, want := range []string{"Demo", "AS", "cone", "174", "3356", "2.500", "3"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty sparkline should be empty string")
	}
	s := Sparkline([]float64{0, 1})
	runes := []rune(s)
	if len(runes) != 2 || runes[0] != '▁' || runes[1] != '█' {
		t.Errorf("sparkline = %q", s)
	}
	flat := []rune(Sparkline([]float64{2, 2, 2}))
	for _, r := range flat {
		if r != '▁' {
			t.Errorf("flat sparkline should be all low: %q", string(flat))
		}
	}
}

func TestSeriesString(t *testing.T) {
	s := Series{Label: "cone", XLabel: []string{"1998", "1999"}, Y: []float64{1, 2}}
	out := s.String()
	for _, want := range []string{"cone", "1998", "1999"} {
		if !strings.Contains(out, want) {
			t.Errorf("series output missing %q:\n%s", want, out)
		}
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]float64{1, 1, 1, 1}); math.Abs(g) > 1e-12 {
		t.Errorf("even Gini = %v, want 0", g)
	}
	// One holder of everything among n: G = (n-1)/n.
	if g := Gini([]float64{0, 0, 0, 10}); math.Abs(g-0.75) > 1e-12 {
		t.Errorf("concentrated Gini = %v, want 0.75", g)
	}
	if Gini(nil) != 0 || Gini([]float64{0, 0}) != 0 {
		t.Error("degenerate Gini should be 0")
	}
	// Order invariance.
	a := Gini([]float64{5, 1, 3, 9})
	b := Gini([]float64{9, 3, 5, 1})
	if math.Abs(a-b) > 1e-12 {
		t.Error("Gini not order invariant")
	}
}
