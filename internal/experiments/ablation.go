package experiments

import (
	"fmt"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stats"
	"github.com/asrank-go/asrank/internal/validation"
)

// R12VantagePoints reproduces the vantage-point visibility analysis:
// how link coverage, inference accuracy, clique recall, and cone recall
// grow with the number of VPs — the limitation the paper repeatedly
// flags.
func R12VantagePoints(l *Lab) *Report {
	topo := l.Topo()
	truth := topo.Links()
	tier1 := map[uint32]bool{}
	for _, a := range topo.Tier1s() {
		tier1[a] = true
	}

	sweeps := []int{1, 2, 5, 10, 20, 50}
	t := stats.NewTable("Effect of vantage-point count",
		"VPs", "paths", "link coverage", "c2p PPV", "p2p PPV", "clique recall", "cone recall")
	for _, n := range sweeps {
		opts := bgpsim.DefaultOptions(l.Cfg.Seed + int64(n))
		opts.NumVPs = n
		sim := mustRun(topo, opts)
		clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
		res := core.Infer(clean, core.Options{})
		m := validation.Evaluate(res.Rels, truth)
		coverage := float64(len(clean.Links())) / float64(len(truth))

		cliqueHit := 0
		for _, c := range res.Clique {
			if tier1[c] {
				cliqueHit++
			}
		}
		cliqueRecall := float64(cliqueHit) / float64(len(tier1))

		// Cone recall: recursive inferred cone of true tier-1s vs truth.
		rec := cone.NewRelations(res.Rels).RecursiveBits()
		var hit, total int
		for t1 := range tier1 {
			trueCone := topo.TrueCone(t1)
			for member := range trueCone {
				if rec.Contains(t1, member) {
					hit++
				}
			}
			total += len(trueCone)
		}
		coneRecall := 0.0
		if total > 0 {
			coneRecall = float64(hit) / float64(total)
		}
		t.AddRow(n, clean.NumPaths(), coverage, m.C2PPPV(), m.P2PPPV(), cliqueRecall, coneRecall)
	}
	return &Report{
		ID:       "R12",
		Title:    "vantage-point ablation (visibility limits)",
		Sections: []fmt.Stringer{t},
	}
}

// registry lists every experiment once, in order.
var registry = []struct {
	id  string
	run func(*Lab) *Report
}{
	{"R1", R01DataSummary},
	{"R2", R02PipelineSteps},
	{"R3", R03CliqueEvolution},
	{"R4", R04ValidationCorpus},
	{"R5", R05PPV},
	{"R6", R06Baselines},
	{"R7", R07ConeDefinitions},
	{"R8", R08ConeEvolution},
	{"R9", R09RankStability},
	{"R10", R10Flattening},
	{"R11", R11DegreeVsCone},
	{"R12", R12VantagePoints},
	{"R13", R13Ablations},
	{"R14", R14ConeConcentration},
}

// ByID returns the experiment function with the given ID ("R01" works
// for "R1"), or nil.
func ByID(id string) func(*Lab) *Report {
	for _, e := range registry {
		if e.id == id || (len(e.id) == 2 && id == "R0"+e.id[1:]) {
			return e.run
		}
	}
	return nil
}

// IDs lists every experiment ID in order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}
