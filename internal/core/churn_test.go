package core_test

import (
	"context"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/streamtest"
	"github.com/asrank-go/asrank/internal/topology"
)

// churned replays a streamtest churn schedule over a simulated
// collection of the given size into a route mirror, calling visit with
// the index of the table after each epoch. These are the graphs the
// clean generator never produces: the schedule's reroutes splice hops
// in and out, inventing adjacencies no policy made, so the c2p
// inferences steps 5–8 attempt close cycles by the thousand.
func churned(tb testing.TB, ases, vps, epochs, churn int, visit func(epoch int, ix *core.CorpusIndex, rank, clique []uint32)) {
	p := topology.DefaultParams(11)
	p.ASes = ases
	so := bgpsim.DefaultOptions(11)
	so.NumVPs = vps
	sim, err := bgpsim.Run(topology.Generate(p), so)
	if err != nil {
		tb.Fatal(err)
	}
	mirror := make(streamtest.Mirror)
	for ep, evs := range streamtest.NewSchedule(11, sim.Dataset, epochs, churn).Epochs {
		for _, ev := range evs {
			mirror.Apply(ev)
		}
		clean, _ := paths.Sanitize(mirror.Dataset(), paths.SanitizeOptions{})
		ix, rank, clique := core.IndexRows(clean, core.Options{})
		visit(ep, ix, rank, clique)
	}
}

// TestDenseEqualsOracleUnderChurn diffs the dense inferencer against
// the one it replaced on the index after each epoch of a churn
// schedule, whole label maps, and requires the run to have refused
// cycles in the top-down pass and in the fold — the two steps whose
// refusals the clean topologies of TestDenseEqualsOracle rarely reach.
func TestDenseEqualsOracleUnderChurn(t *testing.T) {
	refused := map[core.Step]int{}
	churned(t, 300, 6, 36, 400, func(ep int, ix *core.CorpusIndex, rank, clique []uint32) {
		diff, links, guard, cycles := core.DiffDenseOracle(ix, rank, clique, core.Options{})
		if diff != "" {
			t.Fatalf("epoch %d: %s", ep, diff)
		}
		for s, n := range cycles {
			refused[s] += n
		}
		if ep%5 == 0 {
			t.Logf("epoch %2d: %5d links, guard %5d queries, %4d ancestor walks marking %6d ASes, %4d cycles refused",
				ep, links, guard.Queries, guard.Recomputes, guard.Visited, total(cycles))
		}
	})
	if refused[core.StepTopDown] == 0 || refused[core.StepFold] == 0 {
		t.Errorf("cycles refused by step: %v — want some in both top-down and fold", refused)
	}
}

func total(m map[core.Step]int) (n int) {
	for _, v := range m {
		n += v
	}
	return n
}

var sink *core.Result

// BenchmarkInferIndexedChurned times steps 5–9 on the index a ~1k-AS
// table has after 30 churn epochs, and reports what the cycle guard did
// per inference.
func BenchmarkInferIndexedChurned(b *testing.B) {
	var ix *core.CorpusIndex
	var rank, clique []uint32
	churned(b, 1000, 8, 31, 300, func(_ int, i *core.CorpusIndex, r, c []uint32) { ix, rank, clique = i, r, c })
	var guard core.GuardCounts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, guard = core.InferIndexedGuard(context.Background(), ix, rank, clique, core.Options{})
	}
	b.ReportMetric(float64(len(sink.Rels)), "links")
	b.ReportMetric(float64(guard.Queries), "guard-queries/op")
	b.ReportMetric(float64(guard.Recomputes), "guard-walks/op")
	b.ReportMetric(float64(guard.Visited), "guard-visited/op")
}
