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

// All runs every experiment in order.
func All(l *Lab) []*Report {
	return []*Report{
		R01DataSummary(l),
		R02PipelineSteps(l),
		R03CliqueEvolution(l),
		R04ValidationCorpus(l),
		R05PPV(l),
		R06Baselines(l),
		R07ConeDefinitions(l),
		R08ConeEvolution(l),
		R09RankStability(l),
		R10Flattening(l),
		R11DegreeVsCone(l),
		R12VantagePoints(l),
		R13Ablations(l),
		R14ConeConcentration(l),
	}
}

// ByID returns the experiment function with the given ID, or nil.
func ByID(id string) func(*Lab) *Report {
	switch id {
	case "R1", "R01":
		return R01DataSummary
	case "R2", "R02":
		return R02PipelineSteps
	case "R3", "R03":
		return R03CliqueEvolution
	case "R4", "R04":
		return R04ValidationCorpus
	case "R5", "R05":
		return R05PPV
	case "R6", "R06":
		return R06Baselines
	case "R7", "R07":
		return R07ConeDefinitions
	case "R8", "R08":
		return R08ConeEvolution
	case "R9", "R09":
		return R09RankStability
	case "R10":
		return R10Flattening
	case "R11":
		return R11DegreeVsCone
	case "R12":
		return R12VantagePoints
	case "R13":
		return R13Ablations
	case "R14":
		return R14ConeConcentration
	}
	return nil
}

// IDs lists every experiment ID in order.
func IDs() []string {
	return []string{"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "R11", "R12", "R13", "R14"}
}
