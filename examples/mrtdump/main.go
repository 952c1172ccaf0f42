// MRT round trip: export a simulated collection as a TABLE_DUMP_V2 RIB
// snapshot — the archive format Route Views and RIPE RIS publish — then
// read it back and run inference on the recovered paths.
//
//	go run ./examples/mrtdump
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	asrank "github.com/asrank-go/asrank"
)

func main() {
	params := asrank.DefaultTopologyParams(7)
	params.ASes = 800
	topo := asrank.GenerateInternet(params)
	opts := asrank.DefaultSimOptions(7)
	opts.NumVPs = 10
	sim, err := asrank.Simulate(topo, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Write the snapshot the way a collector archive would store it.
	name := filepath.Join(os.TempDir(), "asrank-example-rib.mrt")
	f, err := os.Create(name)
	if err != nil {
		log.Fatal(err)
	}
	ts := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	if err := asrank.ExportMRT(f, sim, ts); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(name)
	fmt.Printf("wrote %s: %d bytes, %d routes from %d peers\n",
		name, info.Size(), sim.Dataset.NumPaths(), len(sim.VPs))

	// Read it back as an inference input.
	ds, stats, err := asrank.ReadMRTFile(name, "example-rv")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back: %d RIB entries -> %d paths (%d with an unusable AS path discarded)\n",
		stats.Entries, ds.NumPaths(), stats.Unusable)

	res := asrank.Infer(asrank.MustSanitize(ds), asrank.InferOptions{})
	m := asrank.Evaluate(res.Rels, topo.Links())
	fmt.Printf("inference from the MRT file: %d links, c2p PPV %.3f, p2p PPV %.3f\n",
		len(res.Rels), m.C2PPPV(), m.P2PPPV())

	if err := os.Remove(name); err != nil {
		log.Fatal(err)
	}
}
