package bgpsim

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/asrank-go/asrank/internal/stats"
	"github.com/asrank-go/asrank/internal/topology"
)

// oracleRoutesTo is the body of RoutesTo as it stood before the
// order-free kernel replaced it, verbatim: every BFS level and bucket
// is sorted so that "lowest exporter wins a tie" falls out of
// first-writer-wins, the route table, the offer map and the bucket
// queue are allocated per call. It survives only here, as the thing
// the resolver is diffed against.
func oracleRoutesTo(s *Sim, dst uint32) ([]Route, error) {
	d, ok := s.idx[dst]
	if !ok {
		return nil, fmt.Errorf("bgpsim: unknown destination AS %d", dst)
	}
	routes := make([]Route, len(s.asns))
	routes[d] = Route{Type: rtOwn, Len: 0}

	// Phase 1: customer routes climb provider edges, BFS by level so
	// shorter paths win; within a level the lowest-ASN exporter wins
	// because frontiers are kept sorted and candidates only improve.
	frontier := []int32{int32(d)}
	for len(frontier) > 0 {
		var next []int32
		for _, x := range frontier {
			for _, p := range s.providers[x] {
				if routes[p].Valid() {
					continue
				}
				// Tentatively mark; since frontier is ASN-sorted and we
				// never overwrite, the lowest exporter at this level wins.
				routes[p] = Route{Type: rtCustomer, Len: routes[x].Len + 1, Next: s.asns[x]}
				next = append(next, p)
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		frontier = next
	}

	// Phase 2: one peer hop. Every AS with an own/customer route offers
	// it to peers; receivers without a customer route take the best
	// offer (shortest, then lowest exporter ASN). Offers are based on
	// phase-1 state only, so iteration order cannot leak peer routes.
	type offer struct {
		len  int
		from int32
	}
	best := make(map[int32]offer)
	for x := range s.asns {
		r := routes[x]
		if r.Type != rtOwn && r.Type != rtCustomer {
			continue
		}
		for _, y := range s.peers[x] {
			if routes[y].Type == rtOwn || routes[y].Type == rtCustomer {
				continue
			}
			o, seen := best[y]
			cand := offer{len: r.Len + 1, from: int32(x)}
			if !seen || cand.len < o.len || (cand.len == o.len && s.asns[cand.from] < s.asns[o.from]) {
				best[y] = cand
			}
		}
	}
	for y, o := range best {
		routes[y] = Route{Type: rtPeer, Len: o.len, Next: s.asns[o.from]}
	}

	// Phase 3: routes descend customer edges (provider routes). A
	// bucket queue by path length implements multi-source BFS; existing
	// routes of any type are never displaced (type precedence).
	buckets := make([][]int32, 1, 16)
	push := func(x int32, length int) {
		for len(buckets) <= length {
			buckets = append(buckets, nil)
		}
		buckets[length] = append(buckets[length], x)
	}
	for x := range s.asns {
		if routes[x].Valid() {
			push(int32(x), routes[x].Len)
		}
	}
	for length := 0; length < len(buckets); length++ {
		level := buckets[length]
		sort.Slice(level, func(i, j int) bool { return level[i] < level[j] })
		for _, x := range level {
			if routes[x].Len != length {
				continue // stale entry
			}
			for _, c := range s.customers[x] {
				if routes[c].Valid() {
					continue
				}
				routes[c] = Route{Type: rtProvider, Len: length + 1, Next: s.asns[x]}
				push(c, length+1)
			}
		}
	}
	return routes, nil
}

// tieCensus counts, over the route tables it is shown, the ASes at
// which each tie rule had something to decide: two or more neighbours
// offering a route of the winning type and length.
type tieCensus struct{ customer, peer, provider int }

// observe restates the selection rule from the finished table, without
// reference to how either kernel walks the graph: the next hop of a
// learned route is the lowest-indexed neighbour on the right side that
// holds an exportable route one hop shorter.
func (c *tieCensus) observe(s *Sim, routes []Route) error {
	exportsUp := func(r Route) bool { return r.Type == rtOwn || r.Type == rtCustomer }
	for y, r := range routes {
		var from []int32
		var tally *int
		ok := exportsUp
		switch r.Type {
		case rtCustomer:
			from, tally = s.customers[y], &c.customer
		case rtPeer:
			from, tally = s.peers[y], &c.peer
		case rtProvider:
			from, tally, ok = s.providers[y], &c.provider, Route.Valid
		default:
			continue
		}
		var offers []int32
		for _, x := range from { // ascending
			if ok(routes[x]) && routes[x].Len == r.Len-1 {
				offers = append(offers, x)
			}
		}
		if len(offers) == 0 || s.asns[offers[0]] != r.Next {
			return fmt.Errorf("AS %d holds %+v, but the equal offers come from dense indices %v", s.asns[y], r, offers)
		}
		if len(offers) > 1 {
			*tally++
		}
	}
	return nil
}

// vpCensus counts the VPs diffKernels' VP-only resolution was asked
// about, by kind: the destination itself, a partial feed the climb
// settled either way (a customer route it exports, a route it does not),
// an AS whose route crosses a peer link, and a stub (no customers) whose
// route comes from a provider.
type vpCensus struct{ dest, partialCustomer, partialHidden, peer, stub int }

// diffKernels holds the resolver to the sorted oracle for every
// destination of topo, Route by Route (type, length, next hop) and path
// by path (pathFrom's walk over the dense next-hop column against
// Path's walk over ASNs), asked in the two ways its callers ask: every
// AS, as RoutesTo does, and a few VPs, as Run does — each way on its own
// scratch, reused from destination to destination as a Run worker
// reuses one.
func diffKernels(t *testing.T, name string, topo *topology.Topology, ties *tieCensus, census *vpCensus) {
	t.Helper()
	s := New(topo)
	all, some := s.newScratch(), s.newScratch()
	rng := stats.NewRNG(int64(len(s.asns)))
	for d, dst := range s.asns {
		want, err := oracleRoutesTo(s, dst)
		if err != nil {
			t.Fatal(err)
		}
		s.routesTo(all, int32(d))
		for x := range want {
			if all.routes[x] != want[x] {
				t.Fatalf("%s: route of AS %d toward %d = %+v, oracle %+v", name, s.asns[x], dst, all.routes[x], want[x])
			}
			if !want[x].Valid() {
				continue
			}
			got, wantPath := s.pathFrom(all, int32(x)), s.Path(want, s.asns[x])
			if !slices.Equal(got, wantPath) {
				t.Fatalf("%s: path %d -> %d = %v, oracle %v", name, s.asns[x], dst, got, wantPath)
			}
		}
		if err := ties.observe(s, want); err != nil {
			t.Fatalf("%s: toward %d: %v", name, dst, err)
		}
		// The public entry point is the same kernel on a fresh scratch.
		if d%97 == 0 {
			fresh, err := s.RoutesTo(dst)
			if err != nil || !slices.Equal(fresh, want) {
				t.Fatalf("%s: RoutesTo(%d) differs from the oracle (err %v)", name, dst, err)
			}
		}

		vps, partial := vpSubset(rng, s, want, int32(d), census)
		got := make([][]uint32, len(vps))
		s.exports(some, int32(d), vps, partial, func(j int, path []uint32) { got[j] = path })
		for j, v := range vps {
			typ := want[v].Type
			var wantPath []uint32
			if v != int32(d) && typ != rtNone && (!partial[j] || typ == rtCustomer) {
				wantPath = s.Path(want, s.asns[v])
			}
			if (got[j] == nil) != (wantPath == nil) || !slices.Equal(got[j], wantPath) {
				t.Fatalf("%s: VP %d (partial %v) exports %v toward %d, oracle %v", name, s.asns[v], partial[j], got[j], dst, wantPath)
			}
			if (!partial[j] || want[v].Type == rtOwn || want[v].Type == rtCustomer) && some.routes[v] != want[v] {
				t.Fatalf("%s: VP %d's route toward %d = %+v, oracle %+v", name, s.asns[v], dst, some.routes[v], want[v])
			}
		}
	}
}

// vpSubset draws the VPs diffKernels asks about toward destination d:
// d itself, an AS whose route crosses a peer link and a stub whose route
// comes from a provider (one each, where want has one), and up to four
// more at random, shuffled, each a partial feed with probability 1/3.
func vpSubset(rng *stats.RNG, s *Sim, want []Route, d int32, census *vpCensus) ([]int32, []bool) {
	var peer, stub []int32
	for x, r := range want {
		switch {
		case r.Type == rtPeer:
			peer = append(peer, int32(x))
		case r.Type == rtProvider && len(s.customers[x]) == 0:
			stub = append(stub, int32(x))
		}
	}
	vps := []int32{d}
	for _, kind := range [][]int32{peer, stub} {
		if len(kind) > 0 {
			vps = append(vps, kind[rng.Intn(len(kind))])
		}
	}
	for range 4 {
		if x := int32(rng.Intn(len(want))); !slices.Contains(vps, x) {
			vps = append(vps, x)
		}
	}
	rng.Shuffle(len(vps), func(i, j int) { vps[i], vps[j] = vps[j], vps[i] })
	partial := make([]bool, len(vps))
	for j, v := range vps {
		partial[j] = rng.Bool(1.0 / 3)
		r := want[v]
		switch {
		case v == d:
			census.dest++
		case partial[j] && r.Type == rtCustomer:
			census.partialCustomer++
		case partial[j] && r.Valid():
			census.partialHidden++
		case r.Type == rtPeer:
			census.peer++
		case r.Type == rtProvider && len(s.customers[v]) == 0:
			census.stub++
		}
	}
	return vps, partial
}

// tieTopology is built so that each tie rule meets its two candidates
// in descending order — the order a first-writer-wins kernel would get
// wrong without sorting. Toward 100: level 1 of the climb is [10 20],
// whose providers make level 2 [40 30]; both sell to 50 (phase 1),
// both peer with 60 (phase 2), both are providers of 70 (phase 3), and
// 30 must be the next hop each time.
func tieTopology(t *testing.T) *topology.Topology {
	t.Helper()
	topo := topology.New()
	for _, asn := range []uint32{10, 20, 30, 40, 50, 60, 70, 100} {
		topo.AddAS(&topology.AS{ASN: asn, Class: topology.ClassTransit})
	}
	for _, pc := range [][2]uint32{{10, 100}, {20, 100}, {40, 10}, {30, 20}, {50, 40}, {50, 30}, {40, 70}, {30, 70}} {
		if err := topo.AddP2C(pc[0], pc[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, pp := range [][2]uint32{{60, 40}, {60, 30}} {
		if err := topo.AddP2P(pp[0], pp[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTieRulesMeetInDescendingOrder(t *testing.T) {
	topo := tieTopology(t)
	for src, rule := range map[uint32]string{50: "phase 1", 60: "phase 2", 70: "phase 3"} {
		want := []uint32{src, 30, 20, 100}
		if got := pathTo(t, topo, src, 100); !slices.Equal(got, want) {
			t.Errorf("%s tie: path %d -> 100 = %v, want %v", rule, src, got, want)
		}
	}
}

// TestPropagateEqualsSortedOracle is the licence for the resolver:
// every destination of 60 generated topologies (five sizes, three
// seeds, four generator settings) and of the hand-built ones, with
// every AS resolved and with a few VPs of each kind (vpCensus) resolved
// alone.
func TestPropagateEqualsSortedOracle(t *testing.T) {
	settings := []struct {
		name string
		set  func(*topology.Params)
	}{
		{"default", func(*topology.Params) {}},
		{"dense-peering", func(p *topology.Params) { p.IXPs, p.IXPPeerProb, p.ContentPeerFrac = 3, 0.8, 0.7 }},
		{"multihomed", func(p *topology.Params) { p.MultihomeP, p.TransitFrac = 0.25, 0.3 }},
		{"flat", func(p *topology.Params) {
			p.Tier1s, p.Regions, p.ContentFrac, p.ProviderlessContentFrac = 3, 2, 0.1, 0.9
		}},
	}
	var total tieCensus
	var vps vpCensus
	topologies := 0
	for _, cfg := range settings {
		var ties tieCensus
		for _, ases := range []int{30, 60, 120, 250, 600} {
			for seed := int64(1); seed <= 3; seed++ {
				p := topology.DefaultParams(seed)
				p.ASes = ases
				cfg.set(&p)
				diffKernels(t, fmt.Sprintf("%s/%d/seed%d", cfg.name, ases, seed), topology.Generate(p), &ties, &vps)
				topologies++
			}
		}
		t.Logf("%-13s ties decided: customer %d, peer %d, provider %d", cfg.name, ties.customer, ties.peer, ties.provider)
		total.customer += ties.customer
		total.peer += ties.peer
		total.provider += ties.provider
	}
	if topologies < 60 {
		t.Fatalf("compared %d topologies, want at least 60", topologies)
	}
	if total.customer == 0 || total.peer == 0 || total.provider == 0 {
		t.Fatalf("tie rules exercised %+v: each of the three must have decided something", total)
	}
	t.Logf("VPs resolved alone: %+v", vps)
	if vps.dest == 0 || vps.partialCustomer == 0 || vps.partialHidden == 0 || vps.peer == 0 || vps.stub == 0 {
		t.Fatalf("VP kinds resolved alone %+v: each must have been asked about", vps)
	}

	var hand tieCensus
	var handVPs vpCensus
	diffKernels(t, "toy", toy(t), &hand, &handVPs)
	diffKernels(t, "ties", tieTopology(t), &hand, &handVPs)
	if hand.customer == 0 || hand.peer == 0 || hand.provider == 0 {
		t.Fatalf("hand-built tie rules exercised %+v: each of the three must have decided something", hand)
	}
	if handVPs.dest == 0 || handVPs.peer == 0 || handVPs.stub == 0 {
		t.Fatalf("hand-built VP kinds resolved alone %+v: the destination, a peer route and a stub must each have been asked about", handVPs)
	}
}
