package cone

import (
	"reflect"
	"testing"

	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// hop labels one adjacency of a test path: rel is x relative to y.
type hop struct {
	x, y uint32
	rel  topology.Relationship
}

// canonical stores hops in the orientation core.Infer produces
// (relative to Link.A), whichever way round the test wrote them.
func canonical(hops []hop) map[paths.Link]topology.Relationship {
	rels := make(map[paths.Link]topology.Relationship, len(hops))
	for _, h := range hops {
		l := paths.NewLink(h.x, h.y)
		if l.A == h.x {
			rels[l] = h.rel
		} else {
			rels[l] = h.rel.Invert()
		}
	}
	return rels
}

// TestCreditingRule states the crediting rule case by case and holds
// the one walker to it through both sinks — the batch bitset sink and
// the streaming refcount sink — and against the frozen sequential
// reference, so the stated rule, the reference and the implementation
// cannot drift apart silently.
func TestCreditingRule(t *testing.T) {
	const (
		p2c = topology.P2C
		c2p = topology.C2P
		p2p = topology.P2P
	)
	cases := []struct {
		name string
		path []uint32
		hops []hop // an adjacency of path absent here is unlabelled
		// owner → credited members (self membership is implied)
		pp, bgp map[uint32][]uint32
	}{
		{
			name: "VP position has no entering hop",
			path: []uint32{1, 2, 3},
			hops: []hop{{1, 2, p2c}, {2, 3, p2c}},
			pp:   map[uint32][]uint32{2: {3}},
			bgp:  map[uint32][]uint32{1: {2, 3}, 2: {3}},
		},
		{
			name: "entered from a customer: not credited",
			path: []uint32{1, 2, 3},
			hops: []hop{{1, 2, c2p}, {2, 3, p2c}},
			pp:   map[uint32][]uint32{},
			bgp:  map[uint32][]uint32{2: {3}},
		},
		{
			name: "entered from a peer: credited",
			path: []uint32{1, 2, 3},
			hops: []hop{{1, 2, p2p}, {2, 3, p2c}},
			pp:   map[uint32][]uint32{2: {3}},
			bgp:  map[uint32][]uint32{2: {3}},
		},
		{
			name: "entered from a provider: credited, descending ASNs",
			path: []uint32{40, 30, 20, 10},
			hops: []hop{{40, 30, p2c}, {30, 20, p2c}, {20, 10, p2c}},
			pp:   map[uint32][]uint32{30: {20, 10}, 20: {10}},
			bgp:  map[uint32][]uint32{40: {30, 20, 10}, 30: {20, 10}, 20: {10}},
		},
		{
			name: "chain stops at the first non-p2c hop",
			path: []uint32{1, 2, 3, 4, 5},
			hops: []hop{{1, 2, p2p}, {2, 3, p2c}, {3, 4, c2p}, {4, 5, p2c}},
			pp:   map[uint32][]uint32{2: {3}},
			bgp:  map[uint32][]uint32{2: {3}, 4: {5}},
		},
		{
			name: "unlabelled hop breaks the chain and is no entry",
			path: []uint32{1, 2, 3, 4, 5},
			hops: []hop{{1, 2, p2p}, {2, 3, p2c}, {4, 5, p2c}},
			pp:   map[uint32][]uint32{2: {3}},
			bgp:  map[uint32][]uint32{2: {3}, 4: {5}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rels := canonical(tc.hops)
			ds := &paths.Dataset{}
			ds.Add(paths.Path{ASNs: tc.path})
			r := NewRelations(rels)
			ref := newSeqRelations(rels)

			want := func(credits map[uint32][]uint32) memberSets {
				sets := make(memberSets)
				for _, asn := range r.ASes() {
					sets[asn] = map[uint32]bool{asn: true}
					for _, m := range credits[asn] {
						sets[asn][m] = true
					}
				}
				return sets
			}
			for _, rule := range []struct {
				name      string
				needEntry bool
				want      memberSets
				batch     *Rows
			}{
				{"pp", true, want(tc.pp), r.ProviderPeerObservedBits(ds)},
				{"bgp", false, want(tc.bgp), r.BGPObservedBits(ds)},
			} {
				if got := ref.observed(ds, rule.needEntry); !reflect.DeepEqual(got, rule.want) {
					t.Errorf("%s: sequential reference = %v, want %v", rule.name, got, rule.want)
				}
				if got := members(rule.batch); !reflect.DeepEqual(got, rule.want) {
					t.Errorf("%s: batch sink = %v, want %v", rule.name, got, rule.want)
				}
			}

			pc := NewPairCounts()
			pc.Credit(rels, tc.path, 1)
			if got := members(pc.dense(r.Index())); !reflect.DeepEqual(got, want(tc.pp)) {
				t.Errorf("refcount sink, dense = %v, want %v", got, want(tc.pp))
			}
			if got := members(pc.Rows(r.Index())); !reflect.DeepEqual(got, want(tc.pp)) {
				t.Errorf("refcount sink, rows = %v, want %v", got, want(tc.pp))
			}
			pc.Credit(rels, tc.path, -1)
			if len(pc.counts) != 0 {
				t.Errorf("+1 then -1 left %d pairs in the table", len(pc.counts))
			}
		})
	}
}

// TestCreditedSteadyStateAllocFree pins what the hotpath mark promises:
// once the scratch has grown to the longest path, a walk allocates
// nothing.
func TestCreditedSteadyStateAllocFree(t *testing.T) {
	rels := canonical([]hop{{1, 2, topology.P2P}, {2, 3, topology.P2C}, {3, 4, topology.P2C}})
	path := []uint32{1, 2, 3, 4}
	var w chainWalk
	w.credited(rels, path, true)
	if allocs := testing.AllocsPerRun(100, func() { w.credited(rels, path, true) }); allocs != 0 {
		t.Errorf("warm walk allocates %v times per path, want 0", allocs)
	}
}
