package bgpsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// pinnedRun is one cell of TestRunCorpusPinned: the corpus bytes (as
// paths.Write renders them) and the artifact counters of one Run.
type pinnedRun struct {
	sha string
	art ArtifactStats
}

// pinnedRuns were recorded by running TestRunCorpusPinned at the commit
// before the order-free kernel (PR 24's tree, sorted BFS levels, one
// core); the test passes on both sides of that change. A row that moves
// means every benchmark corpus and every results/ file moved with it.
var pinnedRuns = map[string]pinnedRun{
	"seed1/default":      {"023f2afac1c7f1344e4856764bf37bdcf6d785b15ababee2a4c1710f82d81363", ArtifactStats{Prepended: 605, Poisoned: 1, PrivateLeaks: 2, RouteServers: 0}},
	"seed1/routeservers": {"a4901db2a79876c14d2b1200810f84493cc74357d72d2bde8d94f8d1fa6a3127", ArtifactStats{Prepended: 606, Poisoned: 3, PrivateLeaks: 0, RouteServers: 1035}},
	"seed1/vps":          {"9193b88526aefc2be5f00ead7f19d813eb15d6ffa1d11470734bf918d5b2a9c4", ArtifactStats{Prepended: 333, Poisoned: 3, PrivateLeaks: 1, RouteServers: 0}},
	"seed2/default":      {"28677cb4d44cf51c69d295a7ebd5544718dec3c151912a7828d9d6dad900ef49", ArtifactStats{Prepended: 631, Poisoned: 3, PrivateLeaks: 5, RouteServers: 0}},
	"seed2/routeservers": {"3caf642173397f7278f103019db10d6ef9bfc9a99ebb815c03c8c49472d15a44", ArtifactStats{Prepended: 629, Poisoned: 7, PrivateLeaks: 2, RouteServers: 1253}},
	"seed2/vps":          {"cf62632fb776b0d6b33460ac5bc32ab4bbdd24856e10e22ee1fb9896aadb68e8", ArtifactStats{Prepended: 148, Poisoned: 1, PrivateLeaks: 0, RouteServers: 0}},
	"seed3/default":      {"8eda1694bb0f4067488fa41ee4c34e0185019bd75c14107ef79f970f09aa823b", ArtifactStats{Prepended: 953, Poisoned: 7, PrivateLeaks: 8, RouteServers: 0}},
	"seed3/routeservers": {"add3546838e02734aecfa43daef5943570599bb008593cb41a068e3b35ef4f39", ArtifactStats{Prepended: 953, Poisoned: 10, PrivateLeaks: 2, RouteServers: 1708}},
	"seed3/vps":          {"bf87b84dab6bcb98fc6c7259f8591959cc088f6a4b5259d45af86b5c1d101869", ArtifactStats{Prepended: 379, Poisoned: 4, PrivateLeaks: 2, RouteServers: 0}},
}

// pinnedOptions are the three option sets of TestRunCorpusPinned. The
// explicit VP list is every n/9-th AS in descending ASN order, so a Run
// that sorted its VPs (or its rows) would not reproduce it.
func pinnedOptions(topo *topology.Topology, seed int64) map[string]Options {
	rs := DefaultOptions(seed)
	rs.RouteServers = 3
	rs.RSInsertProb = 0.2
	explicit := DefaultOptions(seed)
	asns := slices.Clone(topo.ASNs())
	slices.Sort(asns)
	for i := 8; i >= 0; i-- {
		explicit.VPs = append(explicit.VPs, asns[i*len(asns)/9])
	}
	return map[string]Options{"default": DefaultOptions(seed), "routeservers": rs, "vps": explicit}
}

func corpusSHA(t testing.TB, ds *paths.Dataset) string {
	t.Helper()
	h := sha256.New()
	if err := paths.Write(h, ds); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestRunCorpusPinned(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p := topology.DefaultParams(seed)
		p.ASes = 700
		topo := topology.Generate(p)
		for name, opts := range pinnedOptions(topo, seed) {
			key := fmt.Sprintf("seed%d/%s", seed, name)
			res, err := Run(topo, opts)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := pinnedRun{corpusSHA(t, res.Dataset), res.Artifacts}
			if want, ok := pinnedRuns[key]; !ok || got != want {
				t.Errorf("%s: corpus moved\n got  %q: {%q, %#v},\n want %+v", key, key, got.sha, got.art, want)
			}
		}
	}
}

// TestRunGOMAXPROCSInvariant holds Run's fan-out to the serial result:
// rows, row order and every counter are the same on one core and seven.
func TestRunGOMAXPROCSInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p := topology.DefaultParams(11)
	p.ASes = 500
	topo := topology.Generate(p)
	opts := DefaultOptions(11)
	opts.PoisonRate, opts.PrivateLeakRate = 0.02, 0.02
	opts.RouteServers, opts.RSInsertProb = 2, 0.1
	var out [2]*Result
	for i, procs := range []int{1, 7} {
		runtime.GOMAXPROCS(procs)
		res, err := Run(topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	a, b := out[0], out[1]
	if a.Artifacts.Poisoned == 0 || a.Artifacts.PrivateLeaks == 0 || a.Artifacts.RouteServers == 0 || a.Artifacts.Prepended == 0 {
		t.Fatalf("artifact counters %+v: every order-dependent draw must have fired", a.Artifacts)
	}
	if len(a.Dataset.Paths) != cap(a.Dataset.Paths) || len(b.Dataset.Paths) != cap(b.Dataset.Paths) {
		t.Errorf("Dataset.Paths len/cap %d/%d and %d/%d: the workers' row count must size it exactly",
			len(a.Dataset.Paths), cap(a.Dataset.Paths), len(b.Dataset.Paths), cap(b.Dataset.Paths))
	}
	if !reflect.DeepEqual(a.Dataset, b.Dataset) {
		t.Error("Dataset at GOMAXPROCS 7 differs from GOMAXPROCS 1")
	}
	if !reflect.DeepEqual(a.VPs, b.VPs) || !reflect.DeepEqual(a.PartialVPs, b.PartialVPs) ||
		!reflect.DeepEqual(a.DocASes, b.DocASes) || a.Artifacts != b.Artifacts {
		t.Error("run metadata at GOMAXPROCS 7 differs from GOMAXPROCS 1")
	}
}

func TestRunRefusesRepeatedVP(t *testing.T) {
	topo := toy(t)
	opts := DefaultOptions(1)
	opts.VPs = []uint32{3, 5, 3}
	_, err := Run(topo, opts)
	if err == nil || !strings.Contains(err.Error(), "bgpsim: VP 3 listed twice") {
		t.Fatalf("Run with VP 3 twice: err = %v, want \"bgpsim: VP 3 listed twice\"", err)
	}
}

// TestRunRefusesProviderCycle holds Run and RoutesTo to refusing a
// provider (p2c) cycle with an error naming an AS on it. ASes 2 and 3
// are each other's provider, built by hand because AddP2C refuses the
// second link of a 2-cycle; 1 buys from 2, so it is below the cycle but
// not on it, and it is the lowest AS the cycle leaves unresolvable.
func TestRunRefusesProviderCycle(t *testing.T) {
	topo := topology.New()
	topo.AddAS(&topology.AS{ASN: 1, Class: topology.ClassStub, Providers: []uint32{2}})
	topo.AddAS(&topology.AS{ASN: 2, Class: topology.ClassTransit, Providers: []uint32{3}, Customers: []uint32{1, 3}})
	topo.AddAS(&topology.AS{ASN: 3, Class: topology.ClassTransit, Providers: []uint32{2}, Customers: []uint32{2}})
	topo.AddAS(&topology.AS{ASN: 4, Class: topology.ClassTransit})
	const want = "bgpsim: AS 2 is on a provider (p2c) cycle"
	for _, vps := range [][]uint32{nil, {1, 4}} {
		opts := DefaultOptions(1)
		opts.VPs = vps
		if res, err := Run(topo, opts); err == nil || err.Error() != want {
			t.Errorf("Run with VPs %v: err = %v (result %v), want %q", vps, err, res != nil, want)
		}
	}
	for _, dst := range []uint32{1, 4} {
		if _, err := New(topo).RoutesTo(dst); err == nil || err.Error() != want {
			t.Errorf("RoutesTo(%d): err = %v, want %q", dst, err, want)
		}
	}
}

// BenchmarkRun is the generator's share of every benchmark set-up at a
// fifth of batch_10k's size. Run resolves only the routes its VPs' paths
// run through, so its cost follows the VP count: 12 VPs is what every
// benchmark corpus has, 200 is a collector's worth at this size.
func BenchmarkRun(b *testing.B) {
	p := topology.DefaultParams(1)
	p.ASes = 2000
	topo := topology.Generate(p)
	for _, vps := range []int{12, 200} {
		b.Run(fmt.Sprintf("vps=%d", vps), func(b *testing.B) {
			opts := DefaultOptions(1)
			opts.NumVPs = vps
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(topo, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Dataset.NumPaths()), "paths")
			}
		})
	}
}
