// Package bgpsim simulates BGP route propagation over a ground-truth AS
// topology under the Gao–Rexford export model: an AS exports routes
// learned from customers to everyone, and routes learned from peers or
// providers only to customers. Route selection prefers customer routes
// over peer routes over provider routes, then shorter AS paths, then the
// lower next-hop ASN — a deterministic stand-in for real tie-breaking.
//
// The output is the corpus of AS paths a route collector peering with a
// set of vantage-point (VP) ASes would observe: exactly the input the
// ASRank inference pipeline consumes in the paper, including its
// visibility biases (peering links below the VPs' radar are invisible).
// Optional artifact injection adds the measurement noise the paper's
// sanitization steps exist to remove: prepending, poisoned paths, and
// private-ASN leakage.
package bgpsim

import (
	"fmt"
	"slices"

	"github.com/asrank-go/asrank/internal/stats"
	"github.com/asrank-go/asrank/internal/topology"
)

// routeType orders route preference: lower is better.
type routeType int8

const (
	rtNone     routeType = iota // no route
	rtOwn                       // the destination itself
	rtCustomer                  // learned from a customer
	rtPeer                      // learned from a peer
	rtProvider                  // learned from a provider
)

// Route is one AS's best route toward a destination.
type Route struct {
	Type routeType
	Len  int    // AS hops to the destination
	Next uint32 // next-hop ASN (undefined for rtOwn)
}

// Valid reports whether the AS has any route.
func (r Route) Valid() bool { return r.Type != rtNone }

// Sim holds the indexed topology shared by per-destination propagations.
type Sim struct {
	topo *topology.Topology
	asns []uint32       // dense index -> ASN, ascending
	idx  map[uint32]int // ASN -> dense index

	providers [][]int32 // dense adjacency
	customers [][]int32
	peers     [][]int32
}

// New indexes a topology for propagation.
func New(topo *topology.Topology) *Sim {
	asns := append([]uint32(nil), topo.ASNs()...)
	slices.Sort(asns)
	s := &Sim{
		topo:      topo,
		asns:      asns,
		idx:       make(map[uint32]int, len(asns)),
		providers: make([][]int32, len(asns)),
		customers: make([][]int32, len(asns)),
		peers:     make([][]int32, len(asns)),
	}
	for i, asn := range asns {
		s.idx[asn] = i
	}
	toIdx := func(list []uint32) []int32 {
		out := make([]int32, len(list))
		for i, a := range list {
			out[i] = int32(s.idx[a])
		}
		slices.Sort(out)
		return out
	}
	for i, asn := range asns {
		a := topo.AS(asn)
		s.providers[i] = toIdx(a.Providers)
		s.customers[i] = toIdx(a.Customers)
		s.peers[i] = toIdx(a.Peers)
	}
	return s
}

// NumASes returns the number of ASes in the indexed topology.
func (s *Sim) NumASes() int { return len(s.asns) }

// RoutesTo computes every AS's best route toward destination dst using
// three-phase valley-free propagation. The returned slice is indexed by
// the simulator's dense AS index; use Path to extract a full AS path.
func (s *Sim) RoutesTo(dst uint32) ([]Route, error) {
	d, ok := s.idx[dst]
	if !ok {
		return nil, fmt.Errorf("bgpsim: unknown destination AS %d", dst)
	}
	sc := s.newScratch()
	s.propagate(sc, int32(d))
	return sc.routes, nil
}

// scratch is the state of one propagation, reused from destination to
// destination by the worker that owns it: propagate clears the route
// table and truncates the queues, and allocates only while a queue is
// still growing toward its high-water mark.
type scratch struct {
	routes []Route
	// next is the next hop as a dense index, beside routes[x].Next (its
	// ASN): meaningful only where routes[x] is a learned route. Tie
	// rules compare it and path extraction walks it, so neither probes
	// s.idx.
	next []int32
	// routed lists every AS holding a route in the order it got one:
	// the destination, phase 1's BFS levels, then phase 2's peers.
	routed []int32
	// buckets is phase 3's queue: buckets[n] holds the ASes whose route
	// is n hops long, in push order.
	buckets [][]int32
}

func (s *Sim) newScratch() *scratch {
	return &scratch{
		routes: make([]Route, len(s.asns)),
		next:   make([]int32, len(s.asns)),
	}
}

// propagate fills sc.routes with every AS's best route toward the AS
// at dense index d. Within one route type and length the exporter with
// the lower dense index — the lower ASN, asns being ascending — wins,
// and the rule is applied as a comparison wherever two candidates can
// meet, so no level is ever sorted and the order in which a level is
// walked does not show in the result.
func (s *Sim) propagate(sc *scratch, d int32) {
	routes, next := sc.routes, sc.next
	clear(routes)
	routes[d] = Route{Type: rtOwn}

	// Phase 1: customer routes climb provider edges, BFS by level so
	// shorter paths win. A provider already holding a customer route of
	// this level's length got it from another exporter of this level:
	// the lower exporter keeps it.
	q := append(sc.routed[:0], d)
	for lo, length := 0, 1; lo < len(q); length++ {
		hi := len(q)
		for _, x := range q[lo:hi] {
			for _, p := range s.providers[x] {
				switch r := &routes[p]; {
				case r.Type == rtNone:
					*r = Route{Type: rtCustomer, Len: length, Next: s.asns[x]}
					next[p] = x
					q = append(q, p)
				case r.Type == rtCustomer && r.Len == length && x < next[p]:
					r.Next, next[p] = s.asns[x], x
				}
			}
		}
		lo = hi
	}

	// Phase 2: one peer hop. Every AS with an own/customer route — q,
	// exactly — offers it to its peers; a peer without one takes the
	// best offer (shortest, then lowest exporter). Receivers join q
	// behind the exporters, which the loop does not reach, so offers
	// are based on phase-1 state only and no peer route is re-exported.
	for _, x := range q {
		length := routes[x].Len + 1
		for _, y := range s.peers[x] {
			switch r := &routes[y]; {
			case r.Type == rtNone:
				*r = Route{Type: rtPeer, Len: length, Next: s.asns[x]}
				next[y] = x
				q = append(q, y)
			case r.Type == rtPeer && (length < r.Len || length == r.Len && x < next[y]):
				r.Len, r.Next, next[y] = length, s.asns[x], x
			}
		}
	}
	sc.routed = q

	// Phase 3: routes descend customer edges (provider routes). A
	// bucket queue by path length implements multi-source BFS; existing
	// routes of any type are never displaced (type precedence), and a
	// provider route of this level's length + 1 was assigned within
	// this level, where again the lower exporter keeps it.
	for i := range sc.buckets {
		sc.buckets[i] = sc.buckets[i][:0]
	}
	for _, x := range q {
		sc.push(x, routes[x].Len)
	}
	for length := 0; length < len(sc.buckets); length++ {
		for _, x := range sc.buckets[length] {
			for _, c := range s.customers[x] {
				switch r := &routes[c]; {
				case r.Type == rtNone:
					*r = Route{Type: rtProvider, Len: length + 1, Next: s.asns[x]}
					next[c] = x
					sc.push(c, length+1)
				case r.Type == rtProvider && r.Len == length+1 && x < next[c]:
					r.Next, next[c] = s.asns[x], x
				}
			}
		}
	}
}

func (sc *scratch) push(x int32, length int) {
	for len(sc.buckets) <= length {
		sc.buckets = append(sc.buckets, nil)
	}
	sc.buckets[length] = append(sc.buckets[length], x)
}

// pathFrom is Path on a scratch: it walks the dense next-hop column
// from index x to the destination sc was propagated for. routes[x] must
// be valid.
func (s *Sim) pathFrom(sc *scratch, x int32) []uint32 {
	path := make([]uint32, 0, sc.routes[x].Len+1)
	for ; sc.routes[x].Type != rtOwn; x = sc.next[x] {
		path = append(path, s.asns[x])
	}
	return append(path, s.asns[x])
}

// Path returns the full AS path from src toward the destination the
// routes slice was computed for: src first, destination last. It returns
// nil if src has no route.
func (s *Sim) Path(routes []Route, src uint32) []uint32 {
	x, ok := s.idx[src]
	if !ok || !routes[x].Valid() {
		return nil
	}
	path := []uint32{src}
	for routes[x].Type != rtOwn {
		nxt := routes[x].Next
		path = append(path, nxt)
		x = s.idx[nxt]
		if len(path) > len(s.asns) {
			panic("bgpsim: next-hop cycle") // cannot happen if RoutesTo is correct
		}
	}
	return path
}

// SelectVPs picks vantage-point ASes the way real collector deployments
// skew: mostly transit networks of varying size, a few tier-1s, a few
// stubs. The choice is deterministic in the seed.
func SelectVPs(topo *topology.Topology, n int, seed int64) []uint32 {
	rng := stats.NewRNG(seed)
	var tier1, transit, stub []uint32
	for _, asn := range topo.ASNs() {
		switch topo.AS(asn).Class {
		case topology.ClassTier1:
			tier1 = append(tier1, asn)
		case topology.ClassTransit:
			transit = append(transit, asn)
		case topology.ClassStub:
			stub = append(stub, asn)
		}
	}
	slices.Sort(tier1)
	slices.Sort(transit)
	slices.Sort(stub)

	take := func(pool []uint32, k int) []uint32 {
		if k > len(pool) {
			k = len(pool)
		}
		idxs := rng.SampleInts(len(pool), k)
		slices.Sort(idxs)
		out := make([]uint32, 0, k)
		for _, i := range idxs {
			out = append(out, pool[i])
		}
		return out
	}
	nT1 := n / 5
	nStub := n / 5
	nTransit := n - nT1 - nStub
	vps := append(take(tier1, nT1), take(transit, nTransit)...)
	vps = append(vps, take(stub, nStub)...)
	// Top up from transit if a pool ran short.
	if len(vps) < n {
		seen := make(map[uint32]bool, len(vps))
		for _, v := range vps {
			seen[v] = true
		}
		for _, tr := range transit {
			if len(vps) >= n {
				break
			}
			if !seen[tr] {
				vps = append(vps, tr)
			}
		}
	}
	slices.Sort(vps)
	return vps
}
