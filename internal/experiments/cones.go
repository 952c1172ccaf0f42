package experiments

import (
	"fmt"
	"slices"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/stats"
	"github.com/asrank-go/asrank/internal/topology"
)

// simOptsFor derives per-snapshot simulation options.
func simOptsFor(l *Lab, snapshot int64) bgpsim.Options {
	opts := bgpsim.DefaultOptions(l.Cfg.Seed + 1000*snapshot)
	opts.NumVPs = l.Cfg.VPs
	return opts
}

func mustRun(topo *topology.Topology, opts bgpsim.Options) *bgpsim.Result {
	res, err := bgpsim.Run(topo, opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: simulation failed: %v", err))
	}
	return res
}

// R07ConeDefinitions reproduces the cone-definition comparison: for the
// largest ASes, the recursive, BGP-observed and provider/peer cones,
// against the true cone.
func R07ConeDefinitions(l *Lab) *Report {
	topo := l.Topo()
	res := l.Infer()
	rels := cone.NewRelations(res.Rels)
	rec := rels.RecursiveBits().Sizes()
	bgp := rels.BGPObservedBits(res.Dataset).Sizes()
	pp := rels.ProviderPeerObservedBits(res.Dataset).Sizes()

	order := cone.Rank(pp, res.TransitDegree)
	top := 15
	if top > len(order) {
		top = len(order)
	}
	t := stats.NewTable("Customer cone sizes under three definitions (top 15 by PP cone)",
		"rank", "AS", "class", "recursive", "BGP-observed", "PP", "true")
	for i := 0; i < top; i++ {
		asn := order[i]
		class := "?"
		if a := topo.AS(asn); a != nil {
			class = a.Class.String()
		}
		t.AddRow(i+1, asn, class, rec[asn], bgp[asn], pp[asn], len(topo.TrueCone(asn)))
	}

	// Distribution summary over all transit ASes (cone > 1).
	var recS, bgpS, ppS []float64
	for _, asn := range rels.ASes() {
		if rec[asn] > 1 {
			recS = append(recS, float64(rec[asn]))
			bgpS = append(bgpS, float64(bgp[asn]))
			ppS = append(ppS, float64(pp[asn]))
		}
	}
	d := stats.NewTable("Cone size distribution (ASes with non-trivial cones)",
		"definition", "n", "mean", "median", "p90", "max")
	for _, row := range []struct {
		name string
		s    []float64
	}{{"recursive", recS}, {"BGP-observed", bgpS}, {"PP", ppS}} {
		sum := stats.Summarize(row.s)
		d.AddRow(row.name, sum.N, sum.Mean, sum.Median, sum.P90, sum.Max)
	}
	return &Report{
		ID:       "R7",
		Title:    "three cone definitions compared (recursive ⊇ BGP-observed ⊇ PP)",
		Sections: []fmt.Stringer{t, d},
	}
}

// snapshotCones reads each epoch snapshot (warehouse-backed when
// configured) for R8/R9: its PP-cone sizes by ASN — the cone rows'
// lengths are the PP-observed definition the per-snapshot inference
// produced — and its ASes in AS Rank order, the order the API serves.
func snapshotCones(l *Lab) (ppSizes []map[uint32]int, orders [][]uint32) {
	snaps := l.EpochSnapshots()
	ppSizes = make([]map[uint32]int, len(snaps))
	orders = make([][]uint32, len(snaps))
	for i, snap := range snaps {
		pp := make(map[uint32]int, snap.NumASes())
		sizes := snap.ConeSizes()
		for p, asn := range snap.ASNs {
			pp[asn] = int(sizes[p])
		}
		order := make([]uint32, snap.NumASes())
		for r, p := range snap.Rank() {
			order[r] = snap.ASNs[p]
		}
		ppSizes[i], orders[i] = pp, order
	}
	return ppSizes, orders
}

// R08ConeEvolution reproduces the cone-size-over-time figure for the
// largest ASes.
func R08ConeEvolution(l *Lab) *Report {
	ppSizes, orders := snapshotCones(l)
	series := l.Series()
	labels := l.SeriesLabels()

	order := orders[len(orders)-1]
	top := 5
	if top > len(order) {
		top = len(order)
	}
	var sections []fmt.Stringer
	for i := 0; i < top; i++ {
		asn := order[i]
		ys := make([]float64, len(series))
		for s := range series {
			frac := 0.0
			if n := series[s].NumASes(); n > 0 {
				frac = float64(ppSizes[s][asn]) / float64(n)
			}
			ys[s] = frac
		}
		sections = append(sections, stats.Series{
			Label:  fmt.Sprintf("AS%d PP-cone fraction of ASes", asn),
			XLabel: labels,
			Y:      ys,
		})
	}
	return &Report{
		ID:       "R8",
		Title:    "customer cone evolution of the largest ASes",
		Sections: sections,
	}
}

// R09RankStability reproduces the rank-stability analysis: Kendall tau
// between consecutive snapshots and top-10 trajectories.
func R09RankStability(l *Lab) *Report {
	ppSizes, orders := snapshotCones(l)
	series := l.Series()
	labels := l.SeriesLabels()

	taus := make([]float64, 0, len(series)-1)
	for i := 1; i < len(series); i++ {
		// Common AS set between consecutive snapshots.
		var xs, ys []float64
		for asn, sz := range ppSizes[i-1] {
			if sz2, ok := ppSizes[i][asn]; ok {
				xs = append(xs, float64(sz))
				ys = append(ys, float64(sz2))
			}
		}
		taus = append(taus, stats.KendallTau(xs, ys))
	}

	order := orders[len(orders)-1]
	top := 10
	if top > len(order) {
		top = len(order)
	}
	t := stats.NewTable("Rank trajectories of the final top 10", append([]string{"AS"}, labels...)...)
	for i := 0; i < top; i++ {
		asn := order[i]
		row := make([]any, 0, len(series)+1)
		row = append(row, asn)
		for _, o := range orders {
			if r := slices.Index(o, asn); r >= 0 {
				row = append(row, r+1)
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return &Report{
		ID:    "R9",
		Title: "AS rank stability across snapshots",
		Sections: []fmt.Stringer{
			stats.Series{Label: "Kendall tau (consecutive snapshots)", XLabel: labels[1:], Y: taus},
			t,
		},
	}
}

// R10Flattening reproduces the hierarchy-flattening figure: peering
// share and mean path length over time.
func R10Flattening(l *Lab) *Report {
	series := l.Series()
	snaps := l.EpochSnapshots()
	labels := l.SeriesLabels()
	truePeer := make([]float64, len(series))
	inferredPeer := make([]float64, len(series))
	for i, topo := range series {
		st := topo.Stats()
		truePeer[i] = float64(st.P2PLinks) / float64(st.Links)
		peers := 0
		for _, rec := range snaps[i].Links {
			if rec.Rel == topology.P2P {
				peers++
			}
		}
		inferredPeer[i] = float64(peers) / float64(len(snaps[i].Links))
	}
	return &Report{
		ID:    "R10",
		Title: "flattening: peering share and path length over time",
		Sections: []fmt.Stringer{
			stats.Series{Label: "true p2p link share", XLabel: labels, Y: truePeer},
			stats.Series{Label: "inferred p2p link share", XLabel: labels, Y: inferredPeer},
			stats.Series{Label: "mean AS path length", XLabel: labels, Y: l.snapPathLen},
		},
	}
}

// R11DegreeVsCone reproduces the transit-degree vs cone-size relation.
func R11DegreeVsCone(l *Lab) *Report {
	res := l.Infer()
	rels := cone.NewRelations(res.Rels)
	pp := rels.ProviderPeerObservedBits(res.Dataset).Sizes()

	var xs, ys []float64
	for asn, td := range res.TransitDegree {
		if td > 0 {
			xs = append(xs, float64(td))
			ys = append(ys, float64(pp[asn]))
		}
	}
	r := stats.PearsonLogLog(xs, ys)

	// Bucket the relation for a text rendering.
	type bucket struct {
		lo, hi int
		sizes  []float64
	}
	buckets := []*bucket{
		{1, 2, nil}, {3, 9, nil}, {10, 29, nil}, {30, 99, nil}, {100, 1 << 30, nil},
	}
	for asn, td := range res.TransitDegree {
		for _, b := range buckets {
			if td >= b.lo && td <= b.hi {
				b.sizes = append(b.sizes, float64(pp[asn]))
			}
		}
	}
	t := stats.NewTable("PP cone size by transit degree", "transit degree", "ASes", "median cone", "max cone")
	for _, b := range buckets {
		if len(b.sizes) == 0 {
			continue
		}
		s := stats.Summarize(b.sizes)
		label := fmt.Sprintf("%d-%d", b.lo, b.hi)
		if b.hi > 1<<20 {
			label = fmt.Sprintf("%d+", b.lo)
		}
		t.AddRow(label, s.N, s.Median, s.Max)
	}
	return &Report{
		ID:    "R11",
		Title: "transit degree vs customer cone size",
		Sections: []fmt.Stringer{t,
			Textf("log-log Pearson correlation: %.3f\n", r)},
	}
}
