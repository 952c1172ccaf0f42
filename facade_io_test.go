package asrank

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestReadPathsFile(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "paths.txt")
	ds := &Dataset{}
	ds.Add(Path{Collector: "c", ASNs: []uint32{1, 2, 3}})
	var buf bytes.Buffer
	if err := WritePaths(&buf, ds); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPathsFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPaths() != 1 {
		t.Errorf("paths = %d", got.NumPaths())
	}
	if _, err := ReadPathsFile(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestReadMRTFileAndUpdates(t *testing.T) {
	p := DefaultTopologyParams(12)
	p.ASes = 120
	topo := GenerateInternet(p)
	opts := DefaultSimOptions(12)
	opts.NumVPs = 4
	opts.PrependRate, opts.PoisonRate, opts.PrivateLeakRate = 0, 0, 0
	sim, err := Simulate(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)

	dir := t.TempDir()
	ribName := filepath.Join(dir, "rib.mrt")
	f, err := os.Create(ribName)
	if err != nil {
		t.Fatal(err)
	}
	if err := ExportMRT(f, sim, ts); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ds, st, err := ReadMRTFile(ribName, "c")
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries == 0 || ds.NumPaths() != sim.Dataset.NumPaths() {
		t.Errorf("RIB read: %d entries, %d paths", st.Entries, ds.NumPaths())
	}
	if _, _, err := ReadMRTFile(filepath.Join(dir, "missing.mrt"), "c"); err == nil {
		t.Error("missing MRT file should fail")
	}

	// Update trace round trip through the facade.
	var trace bytes.Buffer
	if err := ExportUpdates(&trace, sim, ts); err != nil {
		t.Fatal(err)
	}
	uds, ust, err := ReadMRTUpdates(&trace, "c")
	if err != nil {
		t.Fatal(err)
	}
	if ust.Updates == 0 || uds.NumPaths() != sim.Dataset.NumPaths() {
		t.Errorf("trace read: %d updates, %d paths (want %d)",
			ust.Updates, uds.NumPaths(), sim.Dataset.NumPaths())
	}

	// The RIB snapshot and the converged trace must yield identical
	// inference inputs.
	ribRes := Infer(MustSanitize(ds), InferOptions{})
	traceRes := Infer(MustSanitize(uds), InferOptions{})
	if len(ribRes.Rels) != len(traceRes.Rels) {
		t.Errorf("RIB inference %d links, trace inference %d links",
			len(ribRes.Rels), len(traceRes.Rels))
	}
	for l, r := range ribRes.Rels {
		if traceRes.Rels[l] != r {
			t.Fatalf("link %v: RIB says %v, trace says %v", l, r, traceRes.Rels[l])
		}
	}
}

func TestInferAblationOptions(t *testing.T) {
	p := DefaultTopologyParams(13)
	p.ASes = 250
	topo := GenerateInternet(p)
	sim, err := Simulate(topo, DefaultSimOptions(13))
	if err != nil {
		t.Fatal(err)
	}
	clean := MustSanitize(sim.Dataset)
	noFold := Infer(clean, InferOptions{DisableFold: true})
	for _, l := range noFold.Labels {
		if l.Step.String() == "fold" {
			t.Fatalf("link %v labeled by disabled fold step", l.Link)
		}
	}
	noPL := Infer(clean, InferOptions{DisableProviderless: true})
	if len(noPL.Providerless) != 0 {
		t.Error("disabled provider-less detection still flagged ASes")
	}
}
