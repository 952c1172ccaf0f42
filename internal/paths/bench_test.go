package paths_test

import (
	"bytes"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// batchCorpus is the corpus core's BenchmarkInferBatch runs over (same
// generator, same parameters): a simulated collection with a RIB's
// duplication, about three rows per distinct path. It lives in the
// external test package because bgpsim imports paths.
func batchCorpus(b *testing.B) []byte {
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

// BenchmarkSanitize runs the corpus in the order bgpsim writes it
// (origin-major: consecutive rows share a path) and in the order an MRT
// TABLE_DUMP_V2 file has (prefix-major: a path's rows lie scattered).
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
