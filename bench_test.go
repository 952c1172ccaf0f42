package asrank

// The benchmark harness regenerates every reproduced table and figure
// (R1–R12, see DESIGN.md §4) at BenchConfig scale — one benchmark per
// experiment, measuring the full workload from topology generation to
// rendered report — plus micro-benchmarks for the hot paths (MRT
// decode, attribute codec, route propagation, inference, cones).
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/bgp"
	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/experiments"
	"github.com/asrank-go/asrank/internal/mrt"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stats"
	"github.com/asrank-go/asrank/internal/topology"
)

// benchExperiment measures regenerating one experiment from scratch.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	fn := experiments.ByID(id)
	if fn == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(experiments.BenchConfig())
		rep := fn(lab)
		if len(rep.Sections) == 0 {
			b.Fatalf("%s produced empty report", id)
		}
	}
}

func BenchmarkR01DataSummary(b *testing.B)       { benchExperiment(b, "R1") }
func BenchmarkR02PipelineSteps(b *testing.B)     { benchExperiment(b, "R2") }
func BenchmarkR03CliqueEvolution(b *testing.B)   { benchExperiment(b, "R3") }
func BenchmarkR04ValidationCorpus(b *testing.B)  { benchExperiment(b, "R4") }
func BenchmarkR05PPV(b *testing.B)               { benchExperiment(b, "R5") }
func BenchmarkR06Baselines(b *testing.B)         { benchExperiment(b, "R6") }
func BenchmarkR07ConeDefinitions(b *testing.B)   { benchExperiment(b, "R7") }
func BenchmarkR08ConeEvolution(b *testing.B)     { benchExperiment(b, "R8") }
func BenchmarkR09RankStability(b *testing.B)     { benchExperiment(b, "R9") }
func BenchmarkR10Flattening(b *testing.B)        { benchExperiment(b, "R10") }
func BenchmarkR11DegreeVsCone(b *testing.B)      { benchExperiment(b, "R11") }
func BenchmarkR12VantagePoints(b *testing.B)     { benchExperiment(b, "R12") }
func BenchmarkR13Ablations(b *testing.B)         { benchExperiment(b, "R13") }
func BenchmarkR14ConeConcentration(b *testing.B) { benchExperiment(b, "R14") }

// --- micro-benchmarks -------------------------------------------------

// benchCorpus builds one shared mid-size corpus for the micro-benches.
func benchCorpus(b *testing.B) (*topology.Topology, *paths.Dataset, *core.Result) {
	b.Helper()
	p := topology.DefaultParams(1)
	p.ASes = 1000
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(1)
	opts.NumVPs = 15
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		b.Fatal(err)
	}
	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	return topo, clean, core.Infer(clean, core.Options{})
}

func BenchmarkTopologyGenerate(b *testing.B) {
	p := topology.DefaultParams(1)
	p.ASes = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topology.Generate(p)
	}
}

func BenchmarkPropagation(b *testing.B) {
	p := topology.DefaultParams(1)
	p.ASes = 1000
	topo := topology.Generate(p)
	sim := bgpsim.New(topo)
	dsts := topo.ASNs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RoutesTo(dsts[i%len(dsts)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSanitize(b *testing.B) {
	p := topology.DefaultParams(1)
	p.ASes = 1000
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(1)
	opts.NumVPs = 15
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	}
}

func BenchmarkInfer(b *testing.B) {
	_, clean, _ := benchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Infer(clean, core.Options{})
	}
}

// BenchmarkConeRecursive measures the steady-state cost of the public
// map-form cone query: the first iteration computes the closure, the
// rest materialize the map from the memoized bitsets. The
// *Seq/*Parallel variants below pin the cold compute cost.
func BenchmarkConeRecursive(b *testing.B) {
	_, _, res := benchCorpus(b)
	rels := cone.NewRelations(res.Rels)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rels.Recursive()
	}
}

// BenchmarkConePPObserved measures the steady-state PP-cone query cost
// (bitsets memoized after the first iteration, like
// BenchmarkConeRecursive).
func BenchmarkConePPObserved(b *testing.B) {
	_, clean, res := benchCorpus(b)
	rels := cone.NewRelations(res.Rels)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rels.ProviderPeerObserved(clean)
	}
}

// BenchmarkConeRecursiveSeq measures the cold single-worker engine —
// interning plus closure plus Sets materialization, no memoization —
// so the parallel speedup is visible in one -bench=ConeRecursive run.
func BenchmarkConeRecursiveSeq(b *testing.B) {
	_, _, res := benchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cone.NewRelations(res.Rels).WithWorkers(1).Recursive()
	}
}

// BenchmarkConeRecursiveParallel measures the cold full-fan-out bitset
// closure (no Sets materialization, no memoization): Relations is
// rebuilt each iteration so every RecursiveBits call computes.
func BenchmarkConeRecursiveParallel(b *testing.B) {
	_, _, res := benchCorpus(b)
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cone.NewRelations(res.Rels).WithWorkers(workers).RecursiveBits()
	}
}

// BenchmarkConePPObservedParallel measures the cold sharded
// chain-crediting engine in the compact representation.
func BenchmarkConePPObservedParallel(b *testing.B) {
	_, clean, res := benchCorpus(b)
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cone.NewRelations(res.Rels).WithWorkers(workers).ProviderPeerObservedBits(clean)
	}
}

// BenchmarkInferLarge exercises the inference pipeline at 3× the
// micro-bench scale, where the interned cycle checks dominate the old
// map-based DFS.
func BenchmarkInferLarge(b *testing.B) {
	p := topology.DefaultParams(1)
	p.ASes = 3000
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(1)
	opts.NumVPs = 25
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		b.Fatal(err)
	}
	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Infer(clean, core.Options{})
	}
}

// BenchmarkSanitizeParallel measures the sharded cleaning pass at full
// fan-out (BenchmarkSanitize pins the same corpus; its options default
// to GOMAXPROCS too, so the pair tracks sharding overhead).
func BenchmarkSanitizeParallel(b *testing.B) {
	p := topology.DefaultParams(1)
	p.ASes = 1000
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(1)
	opts.NumVPs = 15
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths.Sanitize(sim.Dataset, paths.SanitizeOptions{Workers: runtime.GOMAXPROCS(0)})
	}
}

func buildRIB(b *testing.B) []byte {
	b.Helper()
	p := topology.DefaultParams(1)
	p.ASes = 500
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(1)
	opts.NumVPs = 10
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bgpsim.ExportMRT(&buf, sim, time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkMRTRead(b *testing.B) {
	rib := buildRIB(b)
	b.SetBytes(int64(len(rib)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := mrt.NewReader(bytes.NewReader(rib))
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkMRTFlatten(b *testing.B) {
	rib := buildRIB(b)
	b.SetBytes(int64(len(rib)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := paths.FromMRT(bytes.NewReader(rib), "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttributesEncodeDecode(b *testing.B) {
	attrs := &bgp.PathAttributes{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.Sequence(7018, 3356, 1299, 64500, 394977),
		NextHop: mustAddr("192.0.2.1"),
		Communities: []bgp.Community{
			bgp.NewCommunity(3356, 100), bgp.NewCommunity(3356, 2001),
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc, err := attrs.Encode(true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bgp.ParseAttributes(enc, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKendallTau(b *testing.B) {
	rng := stats.NewRNG(1)
	n := 10000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(rng.Intn(1000))
		ys[i] = float64(rng.Intn(1000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.KendallTau(xs, ys)
	}
}

func BenchmarkGaoBaseline(b *testing.B) {
	_, clean, _ := benchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rels := InferGao(clean, GaoOptions{}); len(rels) == 0 {
			b.Fatal("empty")
		}
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

func init() {
	// Sanity guard: fail fast if the bench config ever regresses to an
	// empty workload.
	if experiments.BenchConfig().Scale <= 0 {
		panic(fmt.Sprintf("bad bench config: %+v", experiments.BenchConfig()))
	}
}
