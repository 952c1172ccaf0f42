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
	out.PoisonedPaths, out.Dataset, out.SanitizeStats = res.PoisonedPaths, res.Dataset, res.SanitizeStats
	return out
}

// resultDiff reports how got, an Infer result, differs from want, the
// per-row pipeline's: got's kept corpus must carry a grouping equal to
// its rows' grouping by content (GroupByHopsFeed of the same rows built
// by hand), the kept rows must equal want's, and every other field too.
func resultDiff(got, want *Result) error {
	if err := groupedByHops(got.Dataset); err != nil {
		return err
	}
	if !reflect.DeepEqual(got.Dataset.Paths, want.Dataset.Paths) {
		return fmt.Errorf("kept rows\n got %+v\nwant %+v", got.Dataset.Paths, want.Dataset.Paths)
	}
	g, w := *got, *want
	g.Dataset, w.Dataset = nil, nil
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("\n got %+v\nwant %+v", g, w)
	}
	return nil
}

// groupedByHops reports how ds's grouping fails to describe its rows
// and equal their grouping by content.
func groupedByHops(ds *paths.Dataset) error {
	g := ds.Groups()
	if g == nil {
		return fmt.Errorf("the %d kept rows carry no grouping that describes them", len(ds.Paths))
	}
	if want := paths.GroupByHopsFeed(&paths.Dataset{Paths: ds.Paths}, nil); !reflect.DeepEqual(g, want) {
		return fmt.Errorf("kept grouping %+v, the rows group by content as %+v", g, want)
	}
	return nil
}

// indexPerRow is inferPerRow's steps 1–4: the index two passes over the
// rows build — the ranked layer, then, with the clique known, the kept
// layer over the rows that are not poisoned — and, in a Result with
// nothing labelled yet, what those steps decide.
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
// order, the poisoned count, the sanitize stats — equals the per-row
// pipeline's, and the kept rows carry their grouping by hop sequence,
// from both entries (sanitizing, and over a caller's dataset that still
// holds duplicate rows and a row holding AS 0).
func TestInferGroupedEqualsPerRow(t *testing.T) {
	multiRowPoison := 0
	for seed := int64(0); seed < 60; seed++ {
		raw := duplicatedCorpus(stats.NewRNG(seed))
		opts := Options{}
		if seed%2 == 0 {
			opts.Clique = []uint32{1, 2, 3, 4}
		}

		opts.Sanitize = true
		got := Infer(raw.Clone(), opts)
		if err := resultDiff(got, inferPerRow(raw, opts)); err != nil {
			t.Fatalf("seed %d: Infer{Sanitize} differs from the per-row pipeline: %v", seed, err)
		}
		if got.PoisonedPaths > 1 {
			multiRowPoison++
		}

		opts.Sanitize = false
		dup := sanitizedRows(raw)
		dup.Paths = slices.Insert(dup.Paths, len(dup.Paths)/2, paths.Path{Collector: "rv0", ASNs: []uint32{110, 0, 10, 1}})
		if err := resultDiff(Infer(dup, opts), inferPerRow(dup, opts)); err != nil {
			t.Fatalf("seed %d: Infer over duplicate rows differs from the per-row pipeline: %v", seed, err)
		}
		if len(dup.Paths)-1 == got.SanitizeStats.Kept {
			t.Fatalf("seed %d: corpus has no duplicate rows", seed)
		}
	}
	if multiRowPoison < 10 {
		t.Errorf("only %d corpora had a poisoned sequence on several rows", multiRowPoison)
	}
}

// TestInferCleansRowsInPlace holds Options.Sanitize's ownership rule:
// Infer writes the kept corpus into the rows Read handed it, and the
// Result is the one Infer gives over an independent copy of them — the
// kept rows by value, every other field, and a kept grouping that
// describes the rows — over corpora with prepending, duplicates and
// reserved ASNs, so that step 1 both rewrites and drops rows.
func TestInferCleansRowsInPlace(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		raw := duplicatedCorpus(stats.NewRNG(seed))
		for i := 0; i < len(raw.Paths); i += 7 {
			reserved := raw.Paths[i]
			reserved.ASNs = []uint32{reserved.ASNs[0], 64512, 19}
			raw.Add(reserved)
		}
		ds, copied := readBack(t, raw), readBack(t, raw)
		opts := Options{Sanitize: true}
		first := &ds.Paths[0]
		got := Infer(ds, opts)
		st := got.SanitizeStats
		if st.PrependingRemoved == 0 || st.Duplicates == 0 || st.ReservedDiscarded == 0 {
			t.Fatalf("seed %d: step 1 rewrote and dropped too little to tell: %+v", seed, st)
		}
		if &got.Dataset.Paths[0] != first {
			t.Fatalf("seed %d: the kept corpus is a copy, want it written into the rows Read returned", seed)
		}
		if err := resultDiff(got, Infer(copied, opts)); err != nil {
			t.Fatalf("seed %d: Infer over the read rows differs from Infer over a copy: %v", seed, err)
		}
	}
}

// TestInferEmptiesTheDatasetItTakes holds the other half of the rule: a
// dataset Infer{Sanitize} took reads as empty afterwards — no rows, no
// grouping, no links — so reusing it cannot read rows that are no longer
// the caller's, while Infer without Sanitize leaves its input as it was.
func TestInferEmptiesTheDatasetItTakes(t *testing.T) {
	raw := duplicatedCorpus(stats.NewRNG(1))
	ds := readBack(t, raw)
	res := Infer(ds, Options{Sanitize: true})
	if res.Dataset.NumPaths() == 0 {
		t.Fatal("Infer kept no rows: nothing to tell")
	}
	if ds.NumPaths() != 0 || ds.Groups() != nil || len(ds.Links()) != 0 {
		t.Fatalf("the dataset Infer{Sanitize} took reads %d rows, %d links (grouped %v), want none",
			ds.NumPaths(), len(ds.Links()), ds.Groups() != nil)
	}
	if again := Infer(ds, Options{Sanitize: true}); again.Dataset.NumPaths() != 0 || len(again.Rels) != 0 {
		t.Fatalf("Infer over the taken dataset read %d rows and %d links, want none", again.Dataset.NumPaths(), len(again.Rels))
	}

	kept := readBack(t, raw)
	n := kept.NumPaths()
	Infer(kept, Options{})
	if kept.NumPaths() != n {
		t.Fatalf("Infer without Sanitize left %d of %d rows, want its input as it was", kept.NumPaths(), n)
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
		"origins": keySet(ix.origins), "vpOrigins": keySet(ix.vpOrigins), "vpOriginCount": ix.vpOriginCount,
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
// whole Result is equal. With one worker the three tasks run in order,
// with two the end folder waits for a worker, with three all run at
// once; under -race the folders and step 1 are checked against each
// other. Each corpus is folded as built, into unsized tables, and read
// back through Read, into tables sized by the grouping it carries.
func TestFoldAtBirthBuildsThePerRowIndex(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 4} {
		runtime.GOMAXPROCS(procs)
		sequences, poisonedSeqs := 0, 0
		for seed := int64(0); seed < 30; seed++ {
			raw := duplicatedCorpus(stats.NewRNG(seed))
			opts := Options{Clique: []uint32{1, 2, 3, 4}, Sanitize: seed%3 != 0}
			if !opts.Sanitize {
				raw = sanitizedRows(raw)
			}
			wantIx, want := indexPerRow(raw, opts)
			wantTables := tables(wantIx)
			for _, in := range []struct {
				name string
				ds   *paths.Dataset
			}{{"rows", raw.Clone()}, {"read", readBack(t, raw)}} {
				got := indexCorpus(context.Background(), in.ds, opts.withDefaults())
				for name, table := range tables(got.ix) {
					if !reflect.DeepEqual(table, wantTables[name]) {
						t.Fatalf("GOMAXPROCS=%d seed %d %s: table %s\n got %v\nwant %v", procs, seed, in.name, name, table, wantTables[name])
					}
				}
				if !reflect.DeepEqual(got.kept.Paths, want.Dataset.Paths) || got.poisoned != want.PoisonedPaths {
					t.Fatalf("GOMAXPROCS=%d seed %d %s: kept rows differ from the per-row passes'", procs, seed, in.name)
				}
				if err := groupedByHops(got.kept); err != nil {
					t.Fatalf("GOMAXPROCS=%d seed %d %s: %v", procs, seed, in.name, err)
				}
			}
			if err := resultDiff(Infer(raw.Clone(), opts), inferPerRow(raw, opts)); err != nil {
				t.Fatalf("GOMAXPROCS=%d seed %d: Infer differs from the per-row pipeline: %v", procs, seed, err)
			}
			clean := raw
			if opts.Sanitize {
				clean, _ = paths.Sanitize(raw, paths.SanitizeOptions{})
			}
			for _, hops := range paths.GroupByHopsFeed(clean, nil).Hops {
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

// readBack writes ds in the text format and reads it back: the same
// rows, grouped by Read.
func readBack(t *testing.T, ds *paths.Dataset) *paths.Dataset {
	t.Helper()
	var buf bytes.Buffer
	if err := paths.Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	read, err := paths.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if read.Groups() == nil {
		t.Fatal("a dataset Read returned carries no grouping of its rows")
	}
	return read
}

// TestFoldersDoNotOutliveInfer: the two folders are pool tasks, so
// Infer returns — or panics — only after both have drained. A step 1
// that panics (here on a nil corpus row table) must still close the
// feed the folders wait on, and re-raise on the caller's goroutine, with
// one, two or three workers; a cancelled context changes nothing,
// inference does not watch it.
func TestFoldersDoNotOutliveInfer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	raw := duplicatedCorpus(stats.NewRNG(1))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, procs := range []int{1, 2, 3} {
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
		if err := resultDiff(InferCtx(cancelled, raw.Clone(), opts), inferPerRow(raw, opts)); err != nil {
			t.Errorf("GOMAXPROCS=%d: Infer under a cancelled context differs from the per-row pipeline: %v", procs, err)
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
// Infer takes the rows it sanitizes, so every iteration reads the
// corpus afresh, outside the timer and outside the bytes B/row counts:
// both report what Infer alone allocates.
func BenchmarkInferBatch(b *testing.B) {
	file, rows := batchCorpus(b)
	read := func() *paths.Dataset {
		ds, err := paths.Read(bytes.NewReader(file))
		if err != nil {
			b.Fatal(err)
		}
		return ds
	}
	for _, order := range []struct {
		name   string
		corpus func() *paths.Dataset
	}{{"origin-major", read}, {"prefix-major", func() *paths.Dataset { return prefixMajor(read()) }}} {
		b.Run(order.name, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			var alloc uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ds := order.corpus()
				runtime.ReadMemStats(&before)
				b.StartTimer()
				Infer(ds, Options{Sanitize: true})
				b.StopTimer()
				runtime.ReadMemStats(&after)
				alloc += after.TotalAlloc - before.TotalAlloc
			}
			b.ReportMetric(float64(alloc)/float64(b.N*rows), "B/row")
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
