package paths_test

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// batchSim is the collection core's BenchmarkInferBatch runs over (same
// generator, same parameters): a simulated collection with a RIB's
// duplication, about three rows per distinct path. It lives in the
// external test package because bgpsim imports paths.
func batchSim(b testing.TB) *bgpsim.Result {
	p := topology.DefaultParams(1)
	p.ASes = 2000
	so := bgpsim.DefaultOptions(1)
	so.NumVPs = 12
	sim, err := bgpsim.Run(topology.Generate(p), so)
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// batchCorpus is batchSim's corpus in the text format.
func batchCorpus(b testing.TB) []byte {
	var buf bytes.Buffer
	if err := paths.Write(&buf, batchSim(b).Dataset); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkRead reports, beside B/op, the bytes a read allocates per
// row it returns.
func BenchmarkRead(b *testing.B) {
	file := batchCorpus(b)
	b.SetBytes(int64(len(file)))
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		ds, err := paths.Read(bytes.NewReader(file))
		if err != nil {
			b.Fatal(err)
		}
		rows += len(ds.Paths)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(rows), "B/row")
}

// TestReadConcurrently: a Read shares nothing with another — its wave
// of buffers and tables is its own — so four at once over one file,
// each fanning out over the pool, return what one alone does. `make
// check` runs it under the race detector.
func TestReadConcurrently(t *testing.T) {
	file := batchCorpus(t)
	want, err := paths.Read(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := paths.Read(bytes.NewReader(file))
			if err != nil {
				t.Error(err)
			} else if !reflect.DeepEqual(got.Paths, want.Paths) {
				t.Error("a Read beside three others returned other rows than one alone")
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSanitize runs the corpus in the order bgpsim writes it
// (origin-major: consecutive rows share a path) and in the order an MRT
// TABLE_DUMP_V2 file has (prefix-major: a path's rows lie scattered).
// The first is the dataset Read returned, cleaned per path group; the
// second has its rows reordered, so it is cleaned per row, grouped by
// content; the third is the same collection as FromMRT loads its RIB
// snapshot, prefix-major and cleaned per group of the loader's grouping.
func BenchmarkSanitize(b *testing.B) {
	sim := batchSim(b)
	var text, rib bytes.Buffer
	if err := paths.Write(&text, sim.Dataset); err != nil {
		b.Fatal(err)
	}
	if err := bgpsim.ExportMRT(&rib, sim, time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		b.Fatal(err)
	}
	ds, err := paths.Read(&text)
	if err != nil {
		b.Fatal(err)
	}
	mrt, _, err := paths.FromMRT(&rib, sim.Dataset.Paths[0].Collector)
	if err != nil {
		b.Fatal(err)
	}
	for _, order := range []struct {
		name string
		ds   *paths.Dataset
	}{{"origin-major", ds}, {"prefix-major", paths.PrefixMajor(ds)}, {"mrt", mrt}} {
		b.Run(order.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				paths.Sanitize(order.ds, paths.SanitizeOptions{})
			}
		})
	}
}
