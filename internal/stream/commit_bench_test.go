package stream

import (
	"context"
	"net/netip"
	"slices"
	"testing"

	"github.com/asrank-go/asrank/internal/stats"
)

// BenchmarkCommitChurned splits a churned engine's commit into its
// phases. Each iteration bootstraps a 2k-AS, 8-VP collection (committed
// once, untimed), then runs 20 epochs that each withdraw, restore or
// reroute through a detour hop 1 % of the routes and commit. It reports
// the median over the epochs of each phase, and of the commit time no
// phase covers, in ms.
func BenchmarkCommitChurned(b *testing.B) {
	const epochs = 20
	ctx := context.Background()
	base := simCorpus(b, 2000, 8, 1).Paths
	names := []string{"rank_clique", "infer", "credit", "slab", "compose", "unattributed"}
	samples := make([][]float64, len(names))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := New(Options{})
		routes := make([]route, len(base))
		for j, p := range base {
			routes[j] = route{p.Collector, p.ASNs[0], p.Prefix, p.ASNs}
			e.Announce(p.Collector, p.ASNs[0], p.Prefix, p.ASNs)
		}
		e.Commit(ctx)
		rng := stats.NewRNG(1)
		b.StartTimer()
		for ep := 0; ep < epochs; ep++ {
			for m := 0; m < len(routes)/100; m++ {
				r := &routes[rng.Intn(len(routes))]
				switch rng.Intn(3) {
				case 0:
					e.Withdraw(r.collector, r.vp, r.prefix)
					continue
				case 2:
					at := 1 + rng.Intn(len(r.hops)-1)
					r.hops = slices.Insert(slices.Clone(r.hops), at, uint32(3_000_000+rng.Intn(64)))
				}
				e.Announce(r.collector, r.vp, r.prefix, r.hops)
			}
			_, rep := e.CommitEpoch(ctx)
			ph := rep.Phases
			for k, v := range []float64{ph.RankClique, ph.Infer, ph.Credit, ph.Slab, ph.Compose} {
				samples[k] = append(samples[k], v)
				rep.TotalMillis -= v
			}
			samples[5] = append(samples[5], rep.TotalMillis)
		}
	}
	for k, name := range names {
		slices.Sort(samples[k])
		b.ReportMetric(stats.Quantile(samples[k], 0.5), name+"-ms")
	}
}

// BenchmarkAnnounceWithdraw times the ingest path's steady state: one
// announcement of a sequence the engine already holds, under a prefix
// no route names, and its withdrawal, over a bootstrapped and committed
// 1k-AS, 12-VP table. Each iteration's prefix is a /32, which the
// table's /24s never are, so the prefix, the route and the row are each
// filed and freed once.
func BenchmarkAnnounceWithdraw(b *testing.B) {
	base := simCorpus(b, 1000, 12, 1).Paths
	e := New(Options{})
	for _, p := range base {
		e.Announce(p.Collector, p.ASNs[0], p.Prefix, p.ASNs)
	}
	e.Commit(context.Background())
	p := base[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 32)
		e.Announce(p.Collector, p.ASNs[0], pfx, p.ASNs)
		e.Withdraw(p.Collector, p.ASNs[0], pfx)
	}
}
