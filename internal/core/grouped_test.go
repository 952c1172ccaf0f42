package core

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stats"
	"github.com/asrank-go/asrank/internal/topology"
)

// inferPerRow is the pipeline the grouped fold replaced, written
// against the public stage functions: every row folded +1 into both
// index layers and tested for poisoning on its own.
func inferPerRow(ds *paths.Dataset, opts Options) *Result {
	var st paths.SanitizeStats
	if opts.Sanitize {
		ds, st = paths.Sanitize(ds, paths.SanitizeOptions{IXPASes: opts.IXPASes})
	}
	ix := NewCorpusIndex()
	for _, p := range ds.Paths {
		ix.AddPath(p.ASNs, 1)
	}
	rank := ix.Rank()
	clique := CliqueFromIndex(ix, rank, opts.withDefaults())
	inClique := make(map[uint32]bool, len(clique))
	for _, c := range clique {
		inClique[c] = true
	}
	kept := &paths.Dataset{Paths: make([]paths.Path, 0, len(ds.Paths))}
	for _, p := range ds.Paths {
		if Poisoned(p.ASNs, inClique) {
			continue
		}
		kept.Paths = append(kept.Paths, p)
		ix.AddKept(p.ASNs, 1)
	}
	res := InferIndexed(context.Background(), ix, rank, clique, opts)
	res.PoisonedPaths = len(ds.Paths) - len(kept.Paths)
	res.Dataset = kept
	res.SanitizeStats = st
	return res
}

// duplicatedCorpus plants the duplication a RIB has over a three-tier
// toy hierarchy (tier 1: ASes 1–4, tier 2: 10–19, stubs: 100–139): each
// hop sequence is carried by several prefixes and collectors, some
// rows are exact duplicates or prepended spellings of another row's
// path, sandwiches through a tier-2 AS ride on several rows, and one
// sequence has a single row.
func duplicatedCorpus(rng *stats.RNG) *paths.Dataset {
	tier1 := func() uint32 { return uint32(1 + rng.Intn(4)) }
	tier2 := func() uint32 { return uint32(10 + rng.Intn(10)) }
	stub := func() uint32 { return uint32(100 + rng.Intn(40)) }
	var seqs [][]uint32
	for len(seqs) < 60 {
		var hops []uint32
		switch a, b := tier1(), tier1(); rng.Intn(6) {
		case 0:
			hops = []uint32{stub(), tier2(), a, stub()}
		case 1:
			hops = []uint32{tier2(), a, b, tier2(), stub()}
		case 2:
			hops = []uint32{stub(), tier2(), a, b, stub()}
		case 3:
			hops = []uint32{tier2(), a, tier2()}
		case 4:
			hops = []uint32{stub(), a, tier2(), b, stub()} // a sandwich when a and b are clique members
		case 5:
			hops = []uint32{tier2(), tier2(), stub()}
		}
		seqs = append(seqs, hops)
	}
	ds := &paths.Dataset{}
	add := func(hops []uint32) {
		ds.Add(paths.Path{
			Collector: fmt.Sprintf("rv%d", rng.Intn(3)),
			Prefix:    netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(8)), 0}), 24),
			ASNs:      hops,
		})
	}
	for _, hops := range seqs {
		for n := rng.Range(2, 6); n > 0; n-- {
			switch rng.Intn(5) {
			case 0: // the same path, spelled with prepending
				add(append([]uint32{hops[0]}, hops...))
			case 1: // an exact duplicate of an earlier row
				if len(ds.Paths) > 0 {
					ds.Add(ds.Paths[rng.Intn(len(ds.Paths))])
					continue
				}
				fallthrough
			default:
				add(hops)
			}
		}
	}
	add([]uint32{199, 19, 198}) // a group of one row
	return ds
}

// TestInferGroupedEqualsPerRow licenses folding each distinct hop
// sequence once: over corpora with planted duplication the whole
// Result — relationships, steps, rank, clique, the kept rows and their
// order, the poisoned count, the sanitize stats — equals the per-row
// pipeline's, from both entries (sanitizing, and over a caller's
// dataset that still holds duplicate rows).
func TestInferGroupedEqualsPerRow(t *testing.T) {
	multiRowPoison := 0
	for seed := int64(0); seed < 60; seed++ {
		raw := duplicatedCorpus(stats.NewRNG(seed))
		opts := Options{}
		if seed%2 == 0 {
			opts.Clique = []uint32{1, 2, 3, 4}
		}

		opts.Sanitize = true
		got, want := Infer(raw, opts), inferPerRow(raw, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Infer{Sanitize} differs from the per-row pipeline:\n got %+v\nwant %+v", seed, got, want)
		}
		if got.PoisonedPaths > 1 {
			multiRowPoison++
		}

		opts.Sanitize = false
		dup, _ := paths.Sanitize(raw, paths.SanitizeOptions{KeepDuplicates: true})
		if got, want := Infer(dup, opts), inferPerRow(dup, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Infer over duplicate rows differs from the per-row pipeline:\n got %+v\nwant %+v", seed, got, want)
		}
		if len(dup.Paths) == got.SanitizeStats.Kept {
			t.Fatalf("seed %d: corpus has no duplicate rows", seed)
		}
	}
	if multiRowPoison < 10 {
		t.Errorf("only %d corpora had a poisoned sequence on several rows", multiRowPoison)
	}
}

// batchCorpus is the corpus the owner benchmarks of paths and core
// share: a simulated collection with a RIB's duplication (about three
// rows per distinct path), as the text file the batch pipeline starts
// from.
func batchCorpus(tb testing.TB) (file []byte, rows int) {
	p := topology.DefaultParams(1)
	p.ASes = 2000
	so := bgpsim.DefaultOptions(1)
	so.NumVPs = 12
	sim, err := bgpsim.Run(topology.Generate(p), so)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := paths.Write(&buf, sim.Dataset); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), len(sim.Dataset.Paths)
}

func BenchmarkInferBatch(b *testing.B) {
	file, _ := batchCorpus(b)
	ds, err := paths.Read(bytes.NewReader(file))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Infer(ds, Options{Sanitize: true})
	}
}

// TestBatchMallocsPerRow bounds what read → sanitize → infer may
// allocate: per distinct path, not per row (it was 11.5 per row when
// every stage paid per row).
func TestBatchMallocsPerRow(t *testing.T) {
	file, rows := batchCorpus(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ds, err := paths.Read(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	Infer(ds, Options{Sanitize: true})
	runtime.ReadMemStats(&after)
	if perRow := float64(after.Mallocs-before.Mallocs) / float64(rows); perRow > 3 {
		t.Errorf("%.2f mallocs per input row over %d rows, want at most 3", perRow, rows)
	} else {
		t.Logf("%.2f mallocs per input row over %d rows", perRow, rows)
	}
}
