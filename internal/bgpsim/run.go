package bgpsim

import (
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/pool"
	"github.com/asrank-go/asrank/internal/stats"
	"github.com/asrank-go/asrank/internal/topology"
)

// Options configures a simulated collection run.
type Options struct {
	Seed int64

	// VPs are the vantage-point ASes peering with the collector; when
	// nil, NumVPs ASes are selected with SelectVPs. Run refuses an ASN
	// that is not in the topology or is listed twice.
	VPs    []uint32
	NumVPs int

	// Collector names the simulated collector in the path corpus.
	Collector string

	// PartialFeedFrac is the fraction of VPs that treat the collector
	// as a peer and export only their own and customer routes — the
	// limited views the paper contends with.
	PartialFeedFrac float64

	// PrependRate is the fraction of origin ASes that prepend their own
	// ASN 1–3 extra times.
	PrependRate float64

	// PoisonRate is the per-(VP, origin) probability of rewriting a
	// path into a clique–nonclique–clique "poisoned" pattern, the
	// artifact the pipeline's step 4 discards.
	PoisonRate float64

	// PrivateLeakRate is the per-(VP, origin) probability of a private
	// ASN leaking into the path, discarded by sanitization.
	PrivateLeakRate float64

	// CommunityDocFrac is the fraction of ASes that attach
	// relationship-encoding BGP communities (the paper's third
	// validation source). Only ASNs ≤ 65535 can be encoded in RFC 1997
	// communities.
	CommunityDocFrac float64

	// RouteServers is the number of IXP route-server ASNs; with
	// probability RSInsertProb an observed peering hop is mediated by
	// one, putting the route server's ASN in the path. Sanitization
	// splices these out given Result.RouteServerASNs — the paper's
	// IXP-handling step.
	RouteServers int
	RSInsertProb float64
}

// DefaultOptions returns the options used by the experiments.
func DefaultOptions(seed int64) Options {
	return Options{
		Seed:             seed,
		NumVPs:           20,
		Collector:        "sim-rv2",
		PartialFeedFrac:  0.35,
		PrependRate:      0.08,
		PoisonRate:       0.0005,
		PrivateLeakRate:  0.0003,
		CommunityDocFrac: 0.25,
	}
}

// Result is a simulated collection: the path corpus a collector observed
// plus the run metadata the validation substrates need.
type Result struct {
	Topo    *topology.Topology
	Dataset *paths.Dataset
	VPs     []uint32
	// PartialVPs are VPs that exported only own/customer routes.
	PartialVPs map[uint32]bool
	// DocASes attach relationship-encoding communities.
	DocASes map[uint32]bool
	// RouteServerASNs are the IXP route-server ASNs that may appear in
	// paths; feed them to sanitization as IXP ASes.
	RouteServerASNs []uint32
	// Artifacts counts injected measurement noise.
	Artifacts ArtifactStats
}

// ArtifactStats counts injected artifacts, so experiments can confirm
// sanitization removed them.
type ArtifactStats struct {
	Prepended    int
	Poisoned     int
	PrivateLeaks int
	RouteServers int // paths with an IXP route-server hop inserted
}

// Run resolves every VP's route toward every AS and assembles the
// collector's path corpus. Resolution uses every core (GOMAXPROCS); the
// corpus — rows, their order, the artifact counters — is the same at any
// count. Run refuses a topology with a provider (p2c) cycle.
func Run(topo *topology.Topology, opts Options) (*Result, error) {
	if opts.Collector == "" {
		opts.Collector = "sim-rv"
	}
	sim := New(topo)
	if sim.cycle != nil {
		return nil, sim.cycle
	}
	vps := opts.VPs
	if vps == nil {
		n := opts.NumVPs
		if n <= 0 {
			n = 20
		}
		vps = SelectVPs(topo, n, opts.Seed)
	}
	vpIdx := make([]int32, len(vps)) // dense index of each VP
	for j, vp := range vps {
		x, ok := sim.idx[vp]
		if !ok {
			return nil, fmt.Errorf("bgpsim: VP %d not in topology", vp)
		}
		if slices.Contains(vps[:j], vp) {
			return nil, fmt.Errorf("bgpsim: VP %d listed twice", vp)
		}
		vpIdx[j] = int32(x)
	}

	rng := stats.NewRNG(opts.Seed)
	partial := make(map[uint32]bool)
	for _, vp := range vps {
		if rng.Bool(opts.PartialFeedFrac) {
			partial[vp] = true
		}
	}

	// Deterministic destination order: ascending ASN, which is the
	// simulator's dense order — destination i is dense index i.
	dsts := sim.asns

	// Documenting ASes and prepending origins.
	doc := make(map[uint32]bool)
	prependers := make(map[uint32]int)
	for _, asn := range dsts {
		if asn <= 0xffff && rng.Bool(opts.CommunityDocFrac) {
			doc[asn] = true
		}
		if rng.Bool(opts.PrependRate) {
			prependers[asn] = 1 + rng.Intn(3)
		}
	}

	res := &Result{
		Topo:       topo,
		Dataset:    &paths.Dataset{},
		VPs:        vps,
		PartialVPs: partial,
		DocASes:    doc,
	}
	art := &artifactInjector{
		rng:    rng.Split(7),
		topo:   topo,
		tier1s: make(map[uint32]bool),
		opts:   opts,
	}
	for _, t1 := range topo.Tier1s() {
		art.tier1s[t1] = true
	}
	nonClique := nonCliqueTransits(topo)

	// Allocate route-server ASNs above every real ASN.
	if opts.RouteServers > 0 {
		var maxASN uint32
		for _, a := range dsts {
			if a > maxASN {
				maxASN = a
			}
		}
		for i := 0; i < opts.RouteServers; i++ {
			rs := maxASN + 101 + uint32(i)
			res.RouteServerASNs = append(res.RouteServerASNs, rs)
		}
		art.routeServers = res.RouteServerASNs
	}

	// Resolving routes depends on nothing but the topology, so
	// destinations fan out: each worker takes one destination at a time
	// on its chunk's scratch and records the base path of every VP that
	// exports a route (slot i*len(vps)+j for destination i, VP j; nil
	// when the VP exports none).
	base := make([][]uint32, len(dsts)*len(vps))
	partialIdx := make([]bool, len(vps))
	for j, vp := range vps {
		partialIdx[j] = partial[vp]
	}
	var rows atomic.Int64 // corpus rows the base paths will become
	chunk := max(1, len(dsts)/(8*pool.Resolve(0)))
	pool.Chunks(0, len(dsts), chunk, func(lo, hi int) {
		sc := sim.newScratch()
		n := 0
		for i := lo; i < hi; i++ {
			prefixes := len(topo.AS(dsts[i]).Prefixes)
			sim.exports(sc, int32(i), vpIdx, partialIdx, func(j int, path []uint32) {
				base[i*len(vps)+j] = path
				n += prefixes
			})
		}
		rows.Add(int64(n))
	})

	// What depends on order stays serial, in the order it always had —
	// destinations ascending, VPs as listed: every draw of the artifact
	// RNG, the counters it moves, and the position of each row.
	res.Dataset.Paths = make([]paths.Path, 0, rows.Load())
	for i, dst := range dsts {
		prefixes := topo.AS(dst).Prefixes
		for _, b := range base[i*len(vps) : (i+1)*len(vps)] {
			if b == nil {
				continue
			}
			path := art.mutate(b, dst, prependers, nonClique, &res.Artifacts)
			for _, pfx := range prefixes {
				res.Dataset.Add(paths.Path{
					Collector: opts.Collector,
					Prefix:    pfx,
					ASNs:      path,
				})
			}
		}
	}
	return res, nil
}

// exports calls emit with the position j and the AS path of each VP in
// vps (dense indices) that exports a route toward the AS at dense index
// d, in order, resolving only the routes those paths run through. A VP
// does not report its own prefixes, and a partial feed (partial[j])
// carries customer routes only, which the climb alone settles.
func (s *Sim) exports(sc *scratch, d int32, vps []int32, partial []bool, emit func(j int, path []uint32)) {
	s.climb(sc, d)
	for j, v := range vps {
		if v == d {
			continue
		}
		if !partial[j] {
			s.resolve(sc, v)
		}
		if typ := sc.routes[v].Type; typ == rtNone || partial[j] && typ != rtCustomer {
			continue
		}
		emit(j, s.pathFrom(sc, v))
	}
}

// nonCliqueTransits lists transit ASes outside the clique, candidates
// for poisoned-path insertion.
func nonCliqueTransits(topo *topology.Topology) []uint32 {
	var out []uint32
	for _, asn := range topo.ASNs() {
		if topo.AS(asn).Class == topology.ClassTransit {
			out = append(out, asn)
		}
	}
	slices.Sort(out)
	return out
}

type artifactInjector struct {
	rng          *stats.RNG
	topo         *topology.Topology
	tier1s       map[uint32]bool
	opts         Options
	routeServers []uint32
}

// mutate applies per-path artifacts and returns the (possibly rewritten)
// path. The base path is never modified in place.
func (a *artifactInjector) mutate(base []uint32, dst uint32, prependers map[uint32]int, nonClique []uint32, st *ArtifactStats) []uint32 {
	path := base

	if a.opts.PoisonRate > 0 && a.rng.Bool(a.opts.PoisonRate) {
		if p := a.poison(path, nonClique); p != nil {
			st.Poisoned++
			return p // poisoned paths carry no further artifacts
		}
	}
	if n := prependers[dst]; n > 0 {
		st.Prepended++
		path = append(append([]uint32(nil), path...), repeat(dst, n)...)
	}
	if a.opts.PrivateLeakRate > 0 && a.rng.Bool(a.opts.PrivateLeakRate) && len(path) >= 2 {
		st.PrivateLeaks++
		cp := append([]uint32(nil), path...)
		pos := 1 + a.rng.Intn(len(cp)-1)
		cp = append(cp[:pos], append([]uint32{64512}, cp[pos:]...)...)
		path = cp
	}
	if len(a.routeServers) > 0 && a.opts.RSInsertProb > 0 && a.rng.Bool(a.opts.RSInsertProb) {
		if p := a.insertRouteServer(path); p != nil {
			st.RouteServers++
			path = p
		}
	}
	return path
}

// insertRouteServer puts a route-server ASN into the first peering hop
// of the path, mimicking an IXP route server that does not strip its
// own ASN. Returns nil when the path has no peering hop.
func (a *artifactInjector) insertRouteServer(path []uint32) []uint32 {
	for i := 0; i+1 < len(path); i++ {
		if a.topo.Rel(path[i], path[i+1]) != topology.P2P {
			continue
		}
		rs := a.routeServers[a.rng.Intn(len(a.routeServers))]
		out := make([]uint32, 0, len(path)+1)
		out = append(out, path[:i+1]...)
		out = append(out, rs)
		out = append(out, path[i+1:]...)
		return out
	}
	return nil
}

// poison rewrites a path that crosses two adjacent clique members into a
// clique–nonclique–clique sandwich, mimicking poisoning/leaks. Returns
// nil when the path has no adjacent clique pair.
func (a *artifactInjector) poison(path []uint32, nonClique []uint32) []uint32 {
	if len(nonClique) == 0 {
		return nil
	}
	for i := 0; i+1 < len(path); i++ {
		if a.tier1s[path[i]] && a.tier1s[path[i+1]] {
			mid := nonClique[a.rng.Intn(len(nonClique))]
			if mid == path[i] || mid == path[i+1] || contains(path, mid) {
				return nil
			}
			out := make([]uint32, 0, len(path)+1)
			out = append(out, path[:i+1]...)
			out = append(out, mid)
			out = append(out, path[i+1:]...)
			return out
		}
	}
	return nil
}

func repeat(v uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func contains(s []uint32, v uint32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
