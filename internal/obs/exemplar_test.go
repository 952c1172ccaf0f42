package obs

import (
	"strings"
	"testing"
)

// TestObserveExemplar: a traced observation lands in the right bucket,
// surfaces in OpenMetrics exemplar syntax on that bucket's line in the
// OpenMetrics exposition only — classic 0.0.4 output must stay
// exemplar-free, since its parser rejects tokens after the value — and
// both variants pass the strict linter.
func TestObserveExemplar(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("asrank_test_duration_seconds", "Test.", []float64{0.1, 1, 10})

	h.Observe(0.05) // untraced: no exemplar anywhere
	h.ObserveExemplar(0.5, "00000000000000000000000000000abc")
	h.ObserveExemplar(20, "00000000000000000000000000000def") // +Inf bucket

	expo := reg.ExposeOpenMetrics()
	wantMid := `asrank_test_duration_seconds_bucket{le="1"} 2 # {trace_id="00000000000000000000000000000abc"} 0.5 `
	if !strings.Contains(expo, wantMid) {
		t.Errorf("mid-bucket exemplar missing:\nwant prefix %q\n%s", wantMid, expo)
	}
	wantInf := `asrank_test_duration_seconds_bucket{le="+Inf"} 3 # {trace_id="00000000000000000000000000000def"} 20 `
	if !strings.Contains(expo, wantInf) {
		t.Errorf("+Inf exemplar missing:\n%s", expo)
	}
	if strings.Contains(expo, `le="0.1"} 1 #`) {
		t.Errorf("untraced bucket grew an exemplar:\n%s", expo)
	}
	if !strings.HasSuffix(expo, "# EOF\n") {
		t.Errorf("OpenMetrics exposition not terminated with # EOF:\n%s", expo)
	}
	if errs := Lint(expo); len(errs) != 0 {
		t.Errorf("exposition lint: %v", errs)
	}

	// The classic format cannot carry exemplars: same registry, same
	// series, no exemplar suffix and no OpenMetrics framing.
	classic := reg.Expose()
	if strings.Contains(classic, " # ") {
		t.Errorf("classic 0.0.4 exposition grew an exemplar:\n%s", classic)
	}
	if strings.Contains(classic, "# EOF") {
		t.Errorf("classic 0.0.4 exposition has OpenMetrics framing:\n%s", classic)
	}
	if errs := Lint(classic); len(errs) != 0 {
		t.Errorf("classic exposition lint: %v", errs)
	}

	// Last write wins within a bucket.
	h.ObserveExemplar(0.7, "00000000000000000000000000000aaa")
	expo = reg.ExposeOpenMetrics()
	if !strings.Contains(expo, `# {trace_id="00000000000000000000000000000aaa"} 0.7 `) {
		t.Errorf("exemplar not replaced:\n%s", expo)
	}
	if strings.Contains(expo, "abc") {
		t.Errorf("stale exemplar survived:\n%s", expo)
	}

	// Empty trace ID degrades to a plain observation.
	h.ObserveExemplar(0.01, "")
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
}

// TestVecAggregation covers the family-wide sums the SLO layer reads.
func TestVecAggregation(t *testing.T) {
	reg := NewRegistry()

	cv := reg.CounterVec("asrank_test_events_total", "Test.", "kind")
	cv.With("a").Add(3)
	cv.With("b").Add(4)
	if got := cv.Sum(); got != 7 {
		t.Errorf("CounterVec.Sum = %d, want 7", got)
	}

	gv := reg.GaugeVec("asrank_test_depth", "Test.", "route")
	gv.With("a").Set(1.5)
	gv.With("b").Set(2)
	if got := gv.Sum(); got != 3.5 {
		t.Errorf("GaugeVec.Sum = %v, want 3.5", got)
	}
}

// TestLintExemplarViolations: the linter rejects malformed or
// out-of-bucket exemplars and exemplars on non-bucket lines.
func TestLintExemplarViolations(t *testing.T) {
	head := "# HELP m_seconds Test.\n# TYPE m_seconds histogram\n"
	counter := "# HELP c_total Test.\n# TYPE c_total counter\n"
	for name, tc := range map[string]struct {
		text string
		want string
	}{
		"value outside bucket": {
			head + "m_seconds_bucket{le=\"0.1\"} 1 # {trace_id=\"a\"} 0.5 1000.000\n" +
				"m_seconds_bucket{le=\"+Inf\"} 1\nm_seconds_sum 0.05\nm_seconds_count 1\n",
			"outside bucket",
		},
		"exemplar on counter": {
			counter + "c_total 1 # {trace_id=\"a\"} 1\n",
			"non-bucket",
		},
		"malformed labels": {
			head + "m_seconds_bucket{le=\"+Inf\"} 1 # trace_id 1\nm_seconds_sum 1\nm_seconds_count 1\n",
			"malformed exemplar",
		},
		"bad exemplar value": {
			head + "m_seconds_bucket{le=\"+Inf\"} 1 # {trace_id=\"a\"} x\nm_seconds_sum 1\nm_seconds_count 1\n",
			"bad exemplar value",
		},
		"bad timestamp": {
			head + "m_seconds_bucket{le=\"+Inf\"} 1 # {trace_id=\"a\"} 1 notatime\nm_seconds_sum 1\nm_seconds_count 1\n",
			"bad exemplar timestamp",
		},
		"oversized labelset": {
			head + "m_seconds_bucket{le=\"+Inf\"} 1 # {trace_id=\"" + strings.Repeat("x", 130) + "\"} 1\n" +
				"m_seconds_sum 1\nm_seconds_count 1\n",
			"128 runes",
		},
	} {
		errs := Lint(tc.text)
		found := false
		for _, err := range errs {
			if strings.Contains(err.Error(), tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want error containing %q, got %v", name, tc.want, errs)
		}
	}

	// And a well-formed exemplar passes.
	ok := head + "m_seconds_bucket{le=\"0.1\"} 1 # {trace_id=\"a\"} 0.05 1000.000\n" +
		"m_seconds_bucket{le=\"+Inf\"} 1\nm_seconds_sum 0.05\nm_seconds_count 1\n"
	if errs := Lint(ok); len(errs) != 0 {
		t.Errorf("valid exemplar rejected: %v", errs)
	}
}
