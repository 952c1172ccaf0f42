package main

import (
	"bytes"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// TestPrefixWeightsCountTheInferenceCorpus plants one clique–nonclique–
// clique path carrying a prefix no other path announces. Step 4
// discards it, so the served snapshot (warehouse.FromResult) does not
// count that prefix for its origin; ascone, inferring on its own, must
// report the same cone-prefix totals.
func TestPrefixWeightsCountTheInferenceCorpus(t *testing.T) {
	p := topology.DefaultParams(5)
	p.ASes = 300
	sim, err := bgpsim.Run(topology.Generate(p), bgpsim.DefaultOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	ds := sim.Dataset
	clique := core.Infer(ds.Clone(), core.Options{Sanitize: true}).Clique
	inClique := map[uint32]bool{}
	for _, c := range clique {
		inClique[c] = true
	}
	last := ds.Paths[len(ds.Paths)-1]
	origin, outsider := last.Origin(), last.ASNs[0]
	if len(clique) < 2 || inClique[origin] || inClique[outsider] || origin == outsider {
		t.Fatalf("path %v gives no sandwich to plant around clique %v", last.ASNs, clique)
	}
	planted := netip.MustParsePrefix("203.0.113.0/24")
	ds.Add(paths.Path{Collector: "planted", Prefix: planted, ASNs: []uint32{clique[0], outsider, clique[1], origin}})

	res := core.Infer(ds.Clone(), core.Options{Sanitize: true})
	for _, kept := range res.Dataset.Paths {
		if kept.Prefix == planted {
			t.Fatal("the planted path survived step 4; the test plants nothing")
		}
	}
	snap := warehouse.FromResult(res)
	want := map[uint32]int64{}
	for pos, asn := range snap.ASNs {
		want[asn] = snap.ConePrefixes[pos]
	}

	corpus := filepath.Join(t.TempDir(), "paths.txt")
	f, err := os.Create(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if err := paths.Write(f, ds); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-paths", corpus, "-weight", "prefixes", "-top", strconv.Itoa(len(snap.ASNs))}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(out.String(), "\n") {
		fields := strings.Fields(line) // rank, AS, cone size, transit degree
		if len(fields) != 4 {
			continue
		}
		asn, err1 := strconv.ParseUint(fields[1], 10, 32)
		size, err2 := strconv.ParseInt(fields[2], 10, 64)
		if err1 != nil || err2 != nil {
			continue // header and rule lines
		}
		rows++
		if size != want[uint32(asn)] {
			t.Errorf("AS%d: ascone reports %d cone prefixes, the served snapshot %d", asn, size, want[uint32(asn)])
		}
	}
	if rows != len(snap.ASNs) {
		t.Fatalf("parsed %d table rows, want one per AS (%d)", rows, len(snap.ASNs))
	}
}

// TestBadFlagFailsBeforeAnyWork pins that a mistyped -method or -weight
// is refused before the corpus is read: the run errors without creating
// the -ppdc file, even though the -paths file does not exist either.
func TestBadFlagFailsBeforeAnyWork(t *testing.T) {
	for _, bad := range [][]string{{"-method", "ppp"}, {"-weight", "prefixs"}} {
		ppdc := filepath.Join(t.TempDir(), "cones.txt")
		args := append([]string{"-paths", filepath.Join(t.TempDir(), "missing.txt"), "-ppdc", ppdc}, bad...)
		err := run(args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("%v: err = %v, want an unknown-value error", bad, err)
		}
		if _, statErr := os.Stat(ppdc); !os.IsNotExist(statErr) {
			t.Errorf("%v: -ppdc file was created before the flag was refused", bad)
		}
	}
}
