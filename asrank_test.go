package asrank

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestFacadeEndToEnd drives the whole public API the way the quickstart
// example does: generate, simulate, sanitize, infer, cone, rank,
// validate.
func TestFacadeEndToEnd(t *testing.T) {
	p := DefaultTopologyParams(7)
	p.ASes = 400
	topo := GenerateInternet(p)
	sim, err := Simulate(topo, DefaultSimOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	clean, stats := Sanitize(sim.Dataset, SanitizeOptions{})
	if stats.Kept == 0 {
		t.Fatal("sanitize kept nothing")
	}
	res := Infer(clean, InferOptions{})
	if len(res.Rels) == 0 || len(res.Clique) == 0 {
		t.Fatal("inference empty")
	}

	rels := NewRelations(res.Rels)
	cones := rels.ProviderPeerObservedBits(res.Dataset)
	rank := RankByCone(cones.Sizes(), res.TransitDegree)
	if len(rank) == 0 {
		t.Fatal("no ranking")
	}
	// The top-ranked AS should be a clique member.
	inClique := false
	for _, m := range res.Clique {
		if m == rank[0] {
			inClique = true
		}
	}
	if !inClique {
		t.Errorf("top-ranked AS %d not in clique %v", rank[0], res.Clique)
	}

	// Validation via the facade.
	corpus := NewCorpus()
	corpus.AddAll(ReportedRelationships(topo, 0.1, 0, 7), SourceReported)
	m := EvaluateCorpus(res.Rels, corpus)
	if m.C2PTotal == 0 {
		t.Fatal("no validated inferences")
	}
	if m.C2PPPV() < 0.9 {
		t.Errorf("c2p PPV = %.3f", m.C2PPPV())
	}
}

func TestFacadePathsIO(t *testing.T) {
	ds := &Dataset{}
	ds.Add(Path{Collector: "c", ASNs: []uint32{1, 2, 3}})
	var buf bytes.Buffer
	if err := WritePaths(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPaths(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPaths() != 1 || got.Paths[0].Origin() != 3 {
		t.Errorf("round trip: %+v", got.Paths)
	}
}

func TestFacadeMRTRoundTrip(t *testing.T) {
	p := DefaultTopologyParams(8)
	p.ASes = 150
	topo := GenerateInternet(p)
	opts := DefaultSimOptions(8)
	opts.NumVPs = 5
	opts.PrependRate, opts.PoisonRate, opts.PrivateLeakRate = 0, 0, 0
	sim, err := Simulate(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ExportMRT(&buf, sim, time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	ds, st, err := ReadMRT(&buf, "rv-test")
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries == 0 || ds.NumPaths() != sim.Dataset.NumPaths() {
		t.Errorf("MRT round trip: %d entries, %d paths (want %d)",
			st.Entries, ds.NumPaths(), sim.Dataset.NumPaths())
	}
}

func TestFacadeRPSL(t *testing.T) {
	src := `aut-num: AS64496
import:  from AS3356 accept ANY
export:  to AS3356 announce AS64496
`
	rels, err := RPSLRelationships(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 {
		t.Fatalf("rels = %v", rels)
	}
}

func TestFacadeBaselines(t *testing.T) {
	ds := &Dataset{}
	ds.Add(Path{Collector: "c", ASNs: []uint32{10, 20, 30}})
	ds.Add(Path{Collector: "c", ASNs: []uint32{11, 20, 31}})
	if rels := InferGao(ds, GaoOptions{}); len(rels) == 0 {
		t.Error("Gao returned nothing")
	}
	if rels := InferUCLA(ds, UCLAOptions{}); len(rels) == 0 {
		t.Error("UCLA returned nothing")
	}
	if rels := InferXiaGao(ds, nil); len(rels) == 0 {
		t.Error("XiaGao returned nothing")
	}
}

func TestValleyFreeFacade(t *testing.T) {
	p := DefaultTopologyParams(9)
	p.ASes = 100
	topo := GenerateInternet(p)
	opts := DefaultSimOptions(9)
	opts.NumVPs = 3
	opts.PrependRate, opts.PoisonRate, opts.PrivateLeakRate = 0, 0, 0
	sim, err := Simulate(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range sim.Dataset.Paths[:10] {
		if !ValleyFree(topo, path.ASNs) {
			t.Fatalf("simulated path %v not valley free", path.ASNs)
		}
	}
}

func TestRelationshipConstants(t *testing.T) {
	if P2C.Invert() != C2P || P2P.Invert() != P2P || None.Invert() != None {
		t.Error("relationship constants miswired")
	}
	if NewLink(9, 3) != NewLink(3, 9) {
		t.Error("NewLink not normalized")
	}
}
