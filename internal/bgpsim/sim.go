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

	// cycle names an AS on a provider (p2c) cycle, if the topology has
	// one: Run and RoutesTo refuse such a topology, for which a route
	// that descends provider edges is not defined by its providers'.
	cycle error
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
	if x := s.providerCycle(); x >= 0 {
		s.cycle = fmt.Errorf("bgpsim: AS %d is on a provider (p2c) cycle", asns[x])
	}
	return s
}

// providerCycle returns the dense index of an AS on a provider cycle,
// or -1 if the provider digraph is acyclic. It peels the ASes whose
// providers are all peeled, from the provider-free ones down; every AS
// left has a provider left, so a walk from the lowest one, each step to
// the lowest remaining provider, meets some AS twice, and the first it
// meets twice is on a cycle.
func (s *Sim) providerCycle() int32 {
	waiting := make([]int32, len(s.asns)) // providers not yet peeled
	var peeled []int32
	for x, ps := range s.providers {
		if waiting[x] = int32(len(ps)); len(ps) == 0 {
			peeled = append(peeled, int32(x))
		}
	}
	for i := 0; i < len(peeled); i++ {
		for _, c := range s.customers[peeled[i]] {
			if waiting[c]--; waiting[c] == 0 {
				peeled = append(peeled, c)
			}
		}
	}
	if len(peeled) == len(s.asns) {
		return -1
	}
	left := func(x int32) bool { return waiting[x] > 0 }
	x := int32(slices.IndexFunc(waiting, func(w int32) bool { return w > 0 }))
	met := make([]bool, len(s.asns))
	for !met[x] {
		met[x] = true
		x = s.providers[x][slices.IndexFunc(s.providers[x], left)]
	}
	return x
}

// NumASes returns the number of ASes in the indexed topology.
func (s *Sim) NumASes() int { return len(s.asns) }

// RoutesTo computes every AS's best route toward destination dst. The
// returned slice is indexed by the simulator's dense AS index; use Path
// to extract a full AS path. It refuses a topology with a provider cycle.
func (s *Sim) RoutesTo(dst uint32) ([]Route, error) {
	d, ok := s.idx[dst]
	if !ok {
		return nil, fmt.Errorf("bgpsim: unknown destination AS %d", dst)
	}
	if s.cycle != nil {
		return nil, s.cycle
	}
	sc := s.newScratch()
	s.routesTo(sc, int32(d))
	return sc.routes, nil
}

// routesTo settles every AS's route toward the AS at dense index d.
func (s *Sim) routesTo(sc *scratch, d int32) {
	s.climb(sc, d)
	for y := range s.asns {
		s.resolve(sc, int32(y))
	}
}

// scratch is the routes toward one destination, settled as they are
// asked for and reused from destination to destination by the worker
// that owns it: climb clears only the entries the previous destination
// touched, and nothing allocates once the lists have grown to their
// high-water marks.
type scratch struct {
	routes []Route
	// next is the next hop as a dense index, beside routes[x].Next (its
	// ASN): meaningful only where routes[x] is a learned route. Tie
	// rules compare it and path extraction walks it, so neither probes
	// s.idx.
	next  []int32
	state []settleState
	// touched lists every AS whose entries are not zero, in the order it
	// was reached: the destination, the climb's BFS levels, then the
	// ASes resolve visited.
	touched []int32
	stack   []int32 // resolve's ASes waiting on their providers
}

// settleState is how far resolve has got with one AS's route.
type settleState uint8

const (
	unsettled settleState = iota
	waiting               // no peer offer: its route is its providers' best
	settled               // routes[x] is final
)

func (s *Sim) newScratch() *scratch {
	return &scratch{
		routes: make([]Route, len(s.asns)),
		next:   make([]int32, len(s.asns)),
		state:  make([]settleState, len(s.asns)),
	}
}

// climb starts the routes toward the AS at dense index d: it clears what
// the previous destination touched and settles the climb set, the ASes
// holding their own or a customer route. Customer routes climb provider
// edges, BFS by level so shorter paths win. A provider already holding a
// customer route of this level's length got it from another exporter of
// this level: the lower exporter — the lower dense index, which is the
// lower ASN — keeps it, so the order a level is walked in does not show.
func (s *Sim) climb(sc *scratch, d int32) {
	routes, next, state := sc.routes, sc.next, sc.state
	for _, x := range sc.touched {
		routes[x], state[x] = Route{}, unsettled
	}
	routes[d], state[d] = Route{Type: rtOwn}, settled
	q := append(sc.touched[:0], d)
	for lo, length := 0, 1; lo < len(q); length++ {
		hi := len(q)
		for _, x := range q[lo:hi] {
			for _, p := range s.providers[x] {
				switch r := &routes[p]; {
				case r.Type == rtNone:
					*r = Route{Type: rtCustomer, Len: length, Next: s.asns[x]}
					next[p], state[p] = x, settled
					q = append(q, p)
				case r.Type == rtCustomer && r.Len == length && x < next[p]:
					r.Next, next[p] = s.asns[x], x
				}
			}
		}
		lo = hi
	}
	sc.touched = q
}

// resolve settles routes[y] after climb, and every route it runs
// through. An AS outside the climb set takes the best peer offer —
// shortest, then lowest exporter — from a peer in the climb set: a peer
// route crosses one peer link and is never re-exported. Failing that it
// takes the best of its providers' settled routes one hop longer —
// shortest, then lowest provider — or none. A provider not yet settled
// is settled first, from sc.stack rather than by recursion, so a long
// provider chain costs no goroutine stack; New refused provider cycles,
// so the walk ends. Each AS is settled once per destination, so the
// ASes asked about share the providers they have in common.
func (s *Sim) resolve(sc *scratch, y int32) {
	routes, next, state := sc.routes, sc.next, sc.state
	if state[y] == settled {
		return
	}
	stack := append(sc.stack[:0], y)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		switch state[x] {
		case settled:
			stack = stack[:len(stack)-1]
			continue
		case unsettled:
			sc.touched = append(sc.touched, x)
			if best := bestExporter(routes, s.peers[x], rtCustomer); best >= 0 {
				routes[x] = Route{Type: rtPeer, Len: routes[best].Len + 1, Next: s.asns[best]}
				next[x], state[x] = best, settled
				stack = stack[:len(stack)-1]
				continue
			}
			state[x] = waiting
			n := len(stack)
			for _, p := range s.providers[x] {
				if state[p] == unsettled {
					stack = append(stack, p)
				}
			}
			if len(stack) > n {
				continue // back to x once they are settled
			}
		}
		if best := bestExporter(routes, s.providers[x], rtProvider); best >= 0 {
			routes[x] = Route{Type: rtProvider, Len: routes[best].Len + 1, Next: s.asns[best]}
			next[x] = best
		}
		state[x] = settled
		stack = stack[:len(stack)-1]
	}
	sc.stack = stack
}

// bestExporter returns the neighbour in from (ascending) holding the
// shortest route of a type up to worst, the lowest of equals; -1 if
// none holds one. Peers export only own and customer routes (worst =
// rtCustomer), providers any (rtProvider).
func bestExporter(routes []Route, from []int32, worst routeType) int32 {
	best := int32(-1)
	for _, x := range from {
		if r := routes[x]; r.Type != rtNone && r.Type <= worst && (best < 0 || r.Len < routes[best].Len) {
			best = x
		}
	}
	return best
}

// pathFrom is Path on a scratch: it walks the dense next-hop column
// from index x to the destination sc was climbed for. routes[x] must be
// settled and valid, which settles every AS on its path.
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
