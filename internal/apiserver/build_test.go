package apiserver

import (
	"encoding/json"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// oracleBuild is how BuildSnapshot wrote the summaries and the neighbor
// rows before it wrote them by hand: json.Marshal per AS, and each row
// grown by append. It is the reference the hand-written bytes and the
// carved rows are held to.
func oracleBuild(t *testing.T, snap *warehouse.Snapshot) ([][]byte, [][]linkEntry) {
	t.Helper()
	n := len(snap.ASNs)
	rankOf := make([]int, n)
	for r, p := range snap.Rank() {
		rankOf[p] = r + 1
	}
	links := make([][]linkEntry, n)
	roles := make([]roleCounts, n)
	for _, l := range snap.Links {
		step := l.Step.String()
		var roleB, roleA string
		switch l.Rel {
		case topology.P2C:
			roleB, roleA = "customer", "provider"
			roles[l.A].customers++
			roles[l.B].providers++
		case topology.C2P:
			roleB, roleA = "provider", "customer"
			roles[l.A].providers++
			roles[l.B].customers++
		case topology.P2P:
			roleB, roleA = "peer", "peer"
			roles[l.A].peers++
			roles[l.B].peers++
		default:
			continue
		}
		links[l.A] = append(links[l.A], linkEntry{Neighbor: snap.ASNs[l.B], Relationship: roleB, Step: step})
		links[l.B] = append(links[l.B], linkEntry{Neighbor: snap.ASNs[l.A], Relationship: roleA, Step: step})
	}
	coneASes := snap.ConeSizes()
	summaries := make([][]byte, n)
	for i, asn := range snap.ASNs {
		b, err := json.Marshal(asnSummary{
			ASN:           asn,
			Rank:          rankOf[i],
			ConeASes:      int(coneASes[i]),
			ConePrefixes:  int(snap.ConePrefixes[i]),
			TransitDegree: int(snap.TransitDegree[i]),
			Degree:        int(snap.Degree[i]),
			Providers:     roles[i].providers,
			Customers:     roles[i].customers,
			Peers:         roles[i].peers,
			InClique:      slices.Contains(snap.Clique, asn),
		})
		if err != nil {
			t.Fatal(err)
		}
		summaries[i] = b
	}
	return summaries, links
}

// edgeSnapshot is a snapshot built by hand at the edges of the summary
// encoding: the largest AS number, zero and wide counts, an AS without
// links, clique members, and a link of no relationship, which no row
// carries.
func edgeSnapshot() *warehouse.Snapshot {
	return &warehouse.Snapshot{
		ASNs:          []uint32{0, 1, 2, 70000, 4294967295},
		TransitDegree: []int32{0, 2, 1, 0, 1 << 30},
		Degree:        []int32{0, 2, 1, 0, 1<<31 - 1},
		ConePrefixes:  []int64{0, 1 << 40, 3, 0, 7},
		Clique:        []uint32{1, 4294967295},
		PathCount:     12,
		Links: []warehouse.LinkRec{
			{A: 0, B: 2, Rel: topology.None, Step: core.StepNone},
			{A: 1, B: 2, Rel: topology.P2C, Step: core.StepTopDown},
			{A: 1, B: 4, Rel: topology.P2P, Step: core.StepClique},
			{A: 2, B: 4, Rel: topology.C2P, Step: core.StepFold},
		},
		ConeStart:   []int32{0, 0, 2, 3, 3, 6},
		ConeMembers: []int32{1, 2, 2, 0, 2, 4},
	}
}

// TestSummariesMatchEncodingJSON: every AS's summary is byte for byte
// what encoding/json writes for it, and every neighbor row is the row
// the append loop built, on a generated snapshot and on the edges of
// the encoding. An AS without links keeps a nil row, so /links still
// serves [] for it.
func TestSummariesMatchEncodingJSON(t *testing.T) {
	for name, snap := range map[string]*warehouse.Snapshot{
		"generated": warehouse.FromResult(inferSeed(t, 81, 300)),
		"edges":     edgeSnapshot(),
	} {
		d := BuildSnapshot(snap)
		summaries, links := oracleBuild(t, snap)
		for i, asn := range snap.ASNs {
			if string(d.summaryJSON[i]) != string(summaries[i]) {
				t.Errorf("%s: AS%d summary\n got %s\nwant %s", name, asn, d.summaryJSON[i], summaries[i])
			}
			if !reflect.DeepEqual(d.links[i], links[i]) {
				t.Errorf("%s: AS%d neighbor row\n got %+v\nwant %+v", name, asn, d.links[i], links[i])
			}
			if cap(d.summaryJSON[i]) != len(d.summaryJSON[i]) {
				t.Errorf("%s: AS%d summary has room to grow into its neighbor's", name, asn)
			}
		}
		if name != "edges" {
			continue
		}
		if d.links[3] != nil {
			t.Errorf("AS70000 has no links but a row %#v", d.links[3])
		}
		srv, _ := e2eServer(t, d, DefaultShedPolicy())
		resp := fetch(t, srv.URL+"/api/v1/asns/70000/links", nil)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "[]\n" {
			t.Errorf("/asns/70000/links serves %q, want []", body)
		}
	}
}

// TestETagCoversLinksAndCones: a snapshot's ETag changes with anything
// its routes serve — a link's provenance, which /links serves as
// inferredBy, and who is in a cone, which /cone serves, even when every
// cone keeps its size and so every summary stays as it was.
func TestETagCoversLinksAndCones(t *testing.T) {
	base := warehouse.FromResult(inferSeed(t, 81, 300))
	want := BuildSnapshot(base).ETag()

	restepped := *base
	restepped.Links = slices.Clone(base.Links)
	k := slices.IndexFunc(restepped.Links, func(l warehouse.LinkRec) bool { return l.Step == core.StepTopDown })
	if k < 0 {
		t.Fatal("no top-down link to relabel")
	}
	restepped.Links[k].Step = core.StepFold
	if got := BuildSnapshot(&restepped).ETag(); got == want {
		t.Errorf("link %d relabelled top-down → fold keeps ETag %s", k, got)
	}

	// Swap one member of a cone for a position outside it: every cone
	// size, and so every summary, stays as it was.
	moved := *base
	moved.ConeMembers = slices.Clone(base.ConeMembers)
	swapped := false
	for p := 0; p+1 < len(moved.ConeStart) && !swapped; p++ {
		row := moved.ConeMembers[moved.ConeStart[p]:moved.ConeStart[p+1]]
		for j, m := range row {
			// m+1 is outside the row and keeps it ascending.
			if int(m) != p && int(m)+1 < len(base.ASNs) && (j+1 == len(row) || row[j+1] > m+1) {
				row[j], swapped = m+1, true
				break
			}
		}
	}
	if !swapped {
		t.Fatal("no cone member to move")
	}
	d := BuildSnapshot(&moved)
	if !reflect.DeepEqual(d.summaryJSON, BuildSnapshot(base).summaryJSON) {
		t.Fatal("moving a cone member changed a summary: the case is not the one under test")
	}
	if got := d.ETag(); got == want {
		t.Errorf("cone member moved keeps ETag %s", got)
	}
}

// TestBuildSnapshotAllocationsDoNotGrowPerAS: the summaries are written
// into one buffer per chunk of 256 ASes and the neighbor rows carved
// from one array, so six times the ASes cost a few more chunks'
// allocations, not the several per AS a marshal per summary and a row
// grown per AS made.
func TestBuildSnapshotAllocationsDoNotGrowPerAS(t *testing.T) {
	mallocs := func(ases int) (int, uint64) {
		snap := warehouse.FromResult(inferSeed(t, 3, ases))
		BuildSnapshot(snap) // warm the pool's workers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		BuildSnapshot(snap)
		runtime.ReadMemStats(&after)
		return len(snap.ASNs), after.Mallocs - before.Mallocs
	}
	n0, small := mallocs(500)
	n1, large := mallocs(3000)
	t.Logf("%d ASes: %d allocations; %d ASes: %d", n0, small, n1, large)
	if grown, bound := int(large)-int(small), (n1-n0)/20; grown > bound {
		t.Errorf("%d more ASes cost %d more allocations, more than one per 20 ASes (%d)", n1-n0, grown, bound)
	}
}

// BenchmarkBuildSnapshot builds the API snapshot of the 2k-AS fixture
// BenchmarkFromResult converts: same generator, seed and vantage
// points.
func BenchmarkBuildSnapshot(b *testing.B) {
	p := topology.DefaultParams(1)
	p.ASes = 2000
	so := bgpsim.DefaultOptions(1)
	so.NumVPs = 12
	sim, err := bgpsim.Run(topology.Generate(p), so)
	if err != nil {
		b.Fatal(err)
	}
	snap := warehouse.FromResult(core.Infer(sim.Dataset, core.Options{Sanitize: true}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildSnapshot(snap)
	}
}
