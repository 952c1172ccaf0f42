package paths_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// batchCorpus is the corpus core's BenchmarkInferBatch runs over (same
// generator, same parameters): a simulated collection with a RIB's
// duplication, about three rows per distinct path. It lives in the
// external test package because bgpsim imports paths.
func batchCorpus(b testing.TB) []byte {
	p := topology.DefaultParams(1)
	p.ASes = 2000
	so := bgpsim.DefaultOptions(1)
	so.NumVPs = 12
	sim, err := bgpsim.Run(topology.Generate(p), so)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := paths.Write(&buf, sim.Dataset); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkRead(b *testing.B) {
	file := batchCorpus(b)
	b.SetBytes(int64(len(file)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paths.Read(bytes.NewReader(file)); err != nil {
			b.Fatal(err)
		}
	}
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
// The first is the dataset Read returned, cleaned per text group; the
// second has its rows reordered, so it is cleaned per row, grouped by
// content.
func BenchmarkSanitize(b *testing.B) {
	ds, err := paths.Read(bytes.NewReader(batchCorpus(b)))
	if err != nil {
		b.Fatal(err)
	}
	for _, order := range []struct {
		name string
		ds   *paths.Dataset
	}{{"origin-major", ds}, {"prefix-major", paths.PrefixMajor(ds)}} {
		b.Run(order.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				paths.Sanitize(order.ds, paths.SanitizeOptions{})
			}
		})
	}
}
