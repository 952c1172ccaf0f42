package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stats"
	"github.com/asrank-go/asrank/internal/topology"
)

// inferPerRow is the pipeline the grouped fold replaced, written
// against the public stage functions: every row folded +1 into both
// index layers and tested for poisoning on its own.
func inferPerRow(ds *paths.Dataset, opts Options) *Result {
	ix, res := indexPerRow(ds, opts)
	out := InferIndexed(context.Background(), ix, res.Rank, res.Clique, opts)
	out.PoisonedPaths, out.Dataset, out.Sequences, out.SanitizeStats = res.PoisonedPaths, res.Dataset, res.Sequences, res.SanitizeStats
	return out
}

// indexPerRow is inferPerRow's steps 1–4: the index two passes over the
// rows build — the ranked layer, then, with the clique known, the kept
// layer over the rows that are not poisoned — and, in a Result with
// nothing labelled yet, what those steps decide, the kept rows' distinct
// hop sequences in first-seen order among them.
func indexPerRow(ds *paths.Dataset, opts Options) (*CorpusIndex, *Result) {
	res := &Result{}
	if opts.Sanitize {
		ds, res.SanitizeStats = paths.Sanitize(ds, paths.SanitizeOptions{})
	} else {
		ds = &paths.Dataset{Paths: slices.DeleteFunc(slices.Clone(ds.Paths), func(p paths.Path) bool { return slices.Contains(p.ASNs, 0) })}
	}
	ix := NewCorpusIndex()
	for _, p := range ds.Paths {
		ix.AddPath(p.ASNs, 1)
	}
	res.Rank = ix.Rank()
	res.Clique = CliqueFromIndex(ix, res.Rank, opts.withDefaults())
	inClique := make(map[uint32]bool, len(res.Clique))
	for _, c := range res.Clique {
		inClique[c] = true
	}
	res.Dataset = &paths.Dataset{Paths: make([]paths.Path, 0, len(ds.Paths))}
	for _, p := range ds.Paths {
		if Poisoned(p.ASNs, inClique) {
			continue
		}
		res.Dataset.Paths = append(res.Dataset.Paths, p)
		ix.AddKept(p.ASNs, 1)
		if !slices.ContainsFunc(res.Sequences, func(seq []uint32) bool { return slices.Equal(seq, p.ASNs) }) {
			res.Sequences = append(res.Sequences, p.ASNs)
		}
	}
	res.PoisonedPaths = len(ds.Paths) - len(res.Dataset.Paths)
	return ix, res
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
// order, their distinct sequences, the poisoned count, the sanitize
// stats — equals the per-row pipeline's, from both entries (sanitizing,
// and over a caller's dataset that still holds duplicate rows and a row
// holding AS 0).
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
		dup := sanitizedRows(raw)
		dup.Paths = slices.Insert(dup.Paths, len(dup.Paths)/2, paths.Path{Collector: "rv0", ASNs: []uint32{110, 0, 10, 1}})
		if got, want := Infer(dup, opts), inferPerRow(dup, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Infer over duplicate rows differs from the per-row pipeline:\n got %+v\nwant %+v", seed, got, want)
		}
		if len(dup.Paths)-1 == got.SanitizeStats.Kept {
			t.Fatalf("seed %d: corpus has no duplicate rows", seed)
		}
	}
	if multiRowPoison < 10 {
		t.Errorf("only %d corpora had a poisoned sequence on several rows", multiRowPoison)
	}
}

// sanitizedRows cleans raw row by row as paths.Sanitize cleans a row,
// collapsing no duplicate.
func sanitizedRows(raw *paths.Dataset) *paths.Dataset {
	out := &paths.Dataset{}
	for _, p := range raw.Paths {
		clean, _ := paths.Sanitize(&paths.Dataset{Paths: []paths.Path{p}}, paths.SanitizeOptions{})
		out.Paths = append(out.Paths, clean.Paths...)
	}
	return out
}

// keySet is a per-path table's keys, layers a two-layer table's keys
// present in each layer; tables holds every table of an index by name,
// the ones counted over distinct hop contexts with their values, and
// its kept runs settled.
func keySet[K comparable](m map[K]int) map[K]bool {
	keys := make(map[K]bool, len(m))
	for k := range m {
		keys[k] = true
	}
	return keys
}

func layers[K comparable](m map[K]counts) [2]map[K]bool {
	sets := [2]map[K]bool{{}, {}}
	for k, c := range m {
		if c.ranked > 0 {
			sets[0][k] = true
		}
		if c.kept > 0 {
			sets[1][k] = true
		}
	}
	return sets
}

func tables(ix *CorpusIndex) map[string]any {
	settled(ix)
	return map[string]any{
		"triples": layers(ix.triples), "occur": keySet(ix.occur),
		"origins": keySet(ix.origins), "vpOrigins": keySet(ix.vpOrigins),
		"links": ix.links, "deg": ix.deg, "transitPair": ix.transitPair, "transitDeg": ix.transitDeg,
		"keptContexts": ix.keptContexts, "keptLinks": ix.keptLinks,
	}
}

// TestFoldAtBirthBuildsThePerRowIndex licenses kept = ranked − poisoned
// and the fold beside step 1: under a clique that poisons a tenth of the
// sequences and more, the index Infer's steps 1–4 leave — every
// sequence folded +1 into both layers as it was interned, the poisoned
// ones folded back out — has the key sets of the two passes over rows,
// a poisoned sequence's kept-layer keys gone and not left at zero, and
// their very tables where those count distinct hop contexts; and the
// whole Result is equal. With one worker the two tasks run in order;
// under -race the folder and step 1 are checked against each other.
func TestFoldAtBirthBuildsThePerRowIndex(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		sequences, poisonedSeqs := 0, 0
		for seed := int64(0); seed < 30; seed++ {
			raw := duplicatedCorpus(stats.NewRNG(seed))
			opts := Options{Clique: []uint32{1, 2, 3, 4}, Sanitize: seed%3 != 0}
			if !opts.Sanitize {
				raw = sanitizedRows(raw)
			}
			wantIx, want := indexPerRow(raw, opts)
			got := indexCorpus(context.Background(), raw, opts.withDefaults())
			wantTables := tables(wantIx)
			for name, table := range tables(got.ix) {
				if !reflect.DeepEqual(table, wantTables[name]) {
					t.Fatalf("GOMAXPROCS=%d seed %d: table %s\n got %v\nwant %v", procs, seed, name, table, wantTables[name])
				}
			}
			if !reflect.DeepEqual(got.kept, want.Dataset) || !reflect.DeepEqual(got.keptSeqs, want.Sequences) || got.poisoned != want.PoisonedPaths {
				t.Fatalf("GOMAXPROCS=%d seed %d: kept rows differ from the per-row passes'", procs, seed)
			}
			if res, want := Infer(raw, opts), inferPerRow(raw, opts); !reflect.DeepEqual(res, want) {
				t.Fatalf("GOMAXPROCS=%d seed %d: Infer differs from the per-row pipeline:\n got %+v\nwant %+v", procs, seed, res, want)
			}
			clean := raw
			if opts.Sanitize {
				clean, _ = paths.Sanitize(raw, paths.SanitizeOptions{})
			}
			for _, hops := range paths.GroupByHopsFeed(clean.Paths, nil).Hops {
				sequences++
				if Poisoned(hops, map[uint32]bool{1: true, 2: true, 3: true, 4: true}) {
					poisonedSeqs++
				}
			}
		}
		if poisonedSeqs*10 < sequences {
			t.Errorf("GOMAXPROCS=%d: %d of %d sequences poisoned, want a tenth or more", procs, poisonedSeqs, sequences)
		}
	}
}

// TestFoldersDoNotOutliveInfer: the folder is a pool task, so Infer
// returns — or panics — only after it has drained. A step 1 that panics
// (here on a nil corpus row table) must still close the feed the folder
// waits on, and re-raise on the caller's goroutine; a cancelled context
// changes nothing, inference does not watch it.
func TestFoldersDoNotOutliveInfer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	raw := duplicatedCorpus(stats.NewRNG(1))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		for _, sanitize := range []bool{true, false} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("GOMAXPROCS=%d sanitize=%v: step 1 over a nil dataset did not panic on the caller's goroutine", procs, sanitize)
					}
				}()
				indexCorpus(context.Background(), nil, Options{Sanitize: sanitize}.withDefaults())
			}()
		}
		opts := Options{Sanitize: true}
		if got, want := InferCtx(cancelled, raw, opts), inferPerRow(raw, opts); !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: Infer under a cancelled context differs from the per-row pipeline", procs)
		}
		// A pool worker that has signalled its WaitGroup may not have
		// left the scheduler's count yet.
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
			runtime.Gosched()
		}
		if after > before {
			t.Errorf("GOMAXPROCS=%d: %d goroutines before, %d after", procs, before, after)
		}
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

// prefixMajor returns ds's rows ordered by prefix, ties in input order:
// the order of an MRT TABLE_DUMP_V2 file, where the rows of one hop
// sequence lie scattered across the table.
func prefixMajor(ds *paths.Dataset) *paths.Dataset {
	out := &paths.Dataset{Paths: slices.Clone(ds.Paths)}
	slices.SortStableFunc(out.Paths, func(a, b paths.Path) int {
		return cmp.Or(a.Prefix.Addr().Compare(b.Prefix.Addr()), cmp.Compare(a.Prefix.Bits(), b.Prefix.Bits()))
	})
	return out
}

// BenchmarkInferBatch runs the corpus in the order bgpsim writes it
// (origin-major: consecutive rows share a path) and in a RIB dump's.
func BenchmarkInferBatch(b *testing.B) {
	file, _ := batchCorpus(b)
	ds, err := paths.Read(bytes.NewReader(file))
	if err != nil {
		b.Fatal(err)
	}
	for _, order := range []struct {
		name string
		ds   *paths.Dataset
	}{{"origin-major", ds}, {"prefix-major", prefixMajor(ds)}} {
		b.Run(order.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Infer(order.ds, Options{Sanitize: true})
			}
		})
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
