package paths_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/chaos"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// FuzzFromMRT feeds arbitrary bytes to the RIB loader, seeded with a
// simulated collection's TABLE_DUMP_V2 snapshot, its BGP4MP update trace
// and the shared chaos corruptions of both. The loader never panics; a
// stream it accepts accounts for every entry it read, and the dataset
// carries a grouping of its rows by hop sequence that describes them and
// cleans to the very rows the same rows do ungrouped; and the
// uncorrupted snapshot loads as exactly the simulated rows, in the
// snapshot's prefix-major order, while the uncorrupted update trace is
// refused.
func FuzzFromMRT(f *testing.F) {
	p := topology.DefaultParams(7)
	p.ASes = 20
	so := bgpsim.DefaultOptions(7)
	so.NumVPs = 2
	sim, err := bgpsim.Run(topology.Generate(p), so)
	if err != nil {
		f.Fatal(err)
	}
	ts := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	var rib, updates bytes.Buffer
	if err := bgpsim.ExportMRT(&rib, sim, ts); err != nil {
		f.Fatal(err)
	}
	if err := bgpsim.ExportUpdates(&updates, sim, ts); err != nil {
		f.Fatal(err)
	}
	collector := sim.Dataset.Paths[0].Collector
	want := paths.PrefixMajor(sim.Dataset)

	f.Add(rib.Bytes())
	f.Add(updates.Bytes())
	// A peer index table and no RIB entry: no rows, an empty grouping.
	f.Add([]byte("0000\x00\r\x00\x01\x00\x00\x00)0000\x00\a0000000\x00\x0100000000000000000000000000"))
	f.Add([]byte{})
	for _, v := range chaos.CorruptVariants(20130401, rib.Bytes(), 8) {
		f.Add(v)
	}
	for _, v := range chaos.CorruptVariants(20130401, updates.Bytes(), 4) {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, stats, err := paths.FromMRT(bytes.NewReader(data), collector)
		if bytes.Equal(data, rib.Bytes()) {
			if err != nil {
				t.Fatalf("the uncorrupted snapshot: %v", err)
			}
			if !reflect.DeepEqual(ds.Paths, want.Paths) {
				t.Fatalf("the uncorrupted snapshot loads %d rows unlike the %d simulated ones", ds.NumPaths(), want.NumPaths())
			}
		}
		if bytes.Equal(data, updates.Bytes()) && err == nil {
			t.Fatalf("the update trace loads as a snapshot of %d rows", ds.NumPaths())
		}
		if err != nil {
			return
		}
		if ds.NumPaths() != stats.Entries-stats.Unusable {
			t.Fatalf("%d rows from %d entries, %d unusable", ds.NumPaths(), stats.Entries, stats.Unusable)
		}
		for _, row := range ds.Paths {
			if len(row.ASNs) == 0 {
				t.Fatalf("row %v has no hops", row)
			}
		}
		if err := paths.GroupedByHops(ds); err != nil {
			t.Fatal(err)
		}
		grouped, groupedStats := paths.Sanitize(ds, paths.SanitizeOptions{})
		rows, rowStats := paths.Sanitize(&paths.Dataset{Paths: ds.Paths}, paths.SanitizeOptions{})
		if groupedStats != rowStats || !reflect.DeepEqual(grouped.Paths, rows.Paths) {
			t.Fatalf("the grouped rows sanitize to %d rows (%+v), the same rows ungrouped to %d (%+v)",
				grouped.NumPaths(), groupedStats, rows.NumPaths(), rowStats)
		}
	})
}
