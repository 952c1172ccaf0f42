// Package topology models an AS-level Internet graph with ground-truth
// business relationships, and generates synthetic Internets with the
// structural properties relationship inference exploits: a tier-1
// peering clique, an acyclic provider hierarchy, multihomed stubs,
// provider-less content networks, IXP-mediated peering, and regional
// locality. Because the graph is synthetic, the true relationship of
// every link is known, which is what the validation experiments measure
// inference accuracy against.
package topology

import (
	"fmt"
	"net/netip"
	"sort"

	"github.com/asrank-go/asrank/internal/paths"
)

// Relationship is the business relationship between two ASes, oriented
// relative to an ordered pair (x, y).
type Relationship int8

// Relationship values.
const (
	None Relationship = iota
	P2C               // x is a provider of y
	C2P               // x is a customer of y
	P2P               // x and y are settlement-free peers
)

// String names the relationship.
func (r Relationship) String() string {
	switch r {
	case None:
		return "none"
	case P2C:
		return "p2c"
	case C2P:
		return "c2p"
	case P2P:
		return "p2p"
	}
	return fmt.Sprintf("rel(%d)", int8(r))
}

// MarshalText renders the relationship as its String name, so JSON
// says "p2c", not 1.
func (r Relationship) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText parses a name MarshalText writes.
func (r *Relationship) UnmarshalText(b []byte) error {
	for v := None; v <= P2P; v++ {
		if string(b) == v.String() {
			*r = v
			return nil
		}
	}
	return fmt.Errorf("topology: unknown relationship %q", b)
}

// Invert flips the orientation of a relationship.
func (r Relationship) Invert() Relationship {
	switch r {
	case P2C:
		return C2P
	case C2P:
		return P2C
	}
	return r
}

// RelOf returns the relationship of x relative to y (P2C: x is y's
// provider) from a map in canonical orientation — each value relative
// to its key's Link.A, as core.Infer and Topology.Links produce — or
// None when the link is absent. This is the one place the "invert when
// x is Link.B" rule lives.
func RelOf(rels map[paths.Link]Relationship, x, y uint32) Relationship {
	l := paths.NewLink(x, y)
	r := rels[l] // absent → None, which Invert leaves alone
	if l.A == x {
		return r
	}
	return r.Invert()
}

// Class is the structural role of an AS in the synthetic Internet.
type Class int8

// AS classes.
const (
	ClassTier1   Class = iota // member of the top clique
	ClassTransit              // sells transit below the clique
	ClassStub                 // edge network, no customers
	ClassContent              // content/CDN: few or no providers, many peers
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassTier1:
		return "tier1"
	case ClassTransit:
		return "transit"
	case ClassStub:
		return "stub"
	case ClassContent:
		return "content"
	}
	return fmt.Sprintf("class(%d)", int8(c))
}

// AS is one autonomous system with its ground-truth adjacencies.
type AS struct {
	ASN    uint32
	Class  Class
	Region int

	Providers []uint32
	Customers []uint32
	Peers     []uint32

	Prefixes []netip.Prefix
}

// Degree returns the AS's total number of neighbors.
func (a *AS) Degree() int { return len(a.Providers) + len(a.Customers) + len(a.Peers) }

// Topology is an AS graph with ground-truth relationships.
type Topology struct {
	ases map[uint32]*AS
	rels map[paths.Link]Relationship // canonical orientation: Link.A vs Link.B
	// order holds ASNs in insertion order; provider edges always point
	// from an earlier to a later AS, which makes acyclicity structural.
	order []uint32
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		ases: make(map[uint32]*AS),
		rels: make(map[paths.Link]Relationship),
	}
}

// AddAS inserts an AS; it panics on duplicate ASNs (a generator bug).
func (t *Topology) AddAS(a *AS) {
	if _, dup := t.ases[a.ASN]; dup {
		panic(fmt.Sprintf("topology: duplicate AS %d", a.ASN))
	}
	t.ases[a.ASN] = a
	t.order = append(t.order, a.ASN)
}

// AS returns the AS with the given number, or nil.
func (t *Topology) AS(asn uint32) *AS { return t.ases[asn] }

// NumASes returns the number of ASes.
func (t *Topology) NumASes() int { return len(t.ases) }

// ASNs returns all AS numbers in insertion order. The returned slice is
// shared; callers must not modify it.
func (t *Topology) ASNs() []uint32 { return t.order }

// AddP2C records that provider sells transit to customer. Adding an
// existing link is an error; self-links are rejected.
func (t *Topology) AddP2C(provider, customer uint32) error {
	if provider == customer {
		return fmt.Errorf("topology: self link %d", provider)
	}
	p, c := t.ases[provider], t.ases[customer]
	if p == nil || c == nil {
		return fmt.Errorf("topology: p2c %d-%d references unknown AS", provider, customer)
	}
	l := paths.NewLink(provider, customer)
	if _, dup := t.rels[l]; dup {
		return fmt.Errorf("topology: duplicate link %v", l)
	}
	if l.A == provider {
		t.rels[l] = P2C
	} else {
		t.rels[l] = C2P
	}
	p.Customers = append(p.Customers, customer)
	c.Providers = append(c.Providers, provider)
	return nil
}

// AddP2P records a settlement-free peering link.
func (t *Topology) AddP2P(x, y uint32) error {
	if x == y {
		return fmt.Errorf("topology: self link %d", x)
	}
	a, b := t.ases[x], t.ases[y]
	if a == nil || b == nil {
		return fmt.Errorf("topology: p2p %d-%d references unknown AS", x, y)
	}
	l := paths.NewLink(x, y)
	if _, dup := t.rels[l]; dup {
		return fmt.Errorf("topology: duplicate link %v", l)
	}
	t.rels[l] = P2P
	a.Peers = append(a.Peers, y)
	b.Peers = append(b.Peers, x)
	return nil
}

// removeLink deletes whatever relationship exists between x and y,
// fixing up both adjacency lists; an absent link is a no-op.
func (t *Topology) removeLink(x, y uint32) {
	rel := t.Rel(x, y)
	if rel == None {
		return
	}
	delete(t.rels, paths.NewLink(x, y))
	ax, ay := t.ases[x], t.ases[y]
	switch rel {
	case P2C:
		ax.Customers = remove(ax.Customers, y)
		ay.Providers = remove(ay.Providers, x)
	case C2P:
		ax.Providers = remove(ax.Providers, y)
		ay.Customers = remove(ay.Customers, x)
	case P2P:
		ax.Peers = remove(ax.Peers, y)
		ay.Peers = remove(ay.Peers, x)
	}
}

func remove(s []uint32, v uint32) []uint32 {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// HasLink reports whether any relationship exists between x and y.
func (t *Topology) HasLink(x, y uint32) bool {
	_, ok := t.rels[paths.NewLink(x, y)]
	return ok
}

// Rel returns the relationship of x relative to y: P2C means x is y's
// provider.
func (t *Topology) Rel(x, y uint32) Relationship { return RelOf(t.rels, x, y) }

// Links returns the ground-truth relationship of every link, keyed by
// normalized link with the canonical orientation (relative to Link.A).
func (t *Topology) Links() map[paths.Link]Relationship {
	out := make(map[paths.Link]Relationship, len(t.rels))
	for l, r := range t.rels {
		out[l] = r
	}
	return out
}

// NumLinks returns the number of links.
func (t *Topology) NumLinks() int { return len(t.rels) }

// Tier1s returns the clique members in ascending ASN order.
func (t *Topology) Tier1s() []uint32 {
	var out []uint32
	for asn, a := range t.ases {
		if a.Class == ClassTier1 {
			out = append(out, asn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TrueCone returns the ground-truth recursive customer cone of asn: the
// AS itself plus every AS reachable by repeatedly following customer
// links.
func (t *Topology) TrueCone(asn uint32) map[uint32]bool {
	cone := make(map[uint32]bool)
	var walk func(uint32)
	walk = func(x uint32) {
		if cone[x] {
			return
		}
		cone[x] = true
		for _, c := range t.ases[x].Customers {
			walk(c)
		}
	}
	if t.ases[asn] == nil {
		return cone
	}
	walk(asn)
	return cone
}

// Validate checks structural invariants: the provider digraph is acyclic,
// clique members are mutually peered and have no providers, and adjacency
// lists agree with the relationship map.
func (t *Topology) Validate() error {
	// Acyclicity via DFS over customer edges.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[uint32]int8, len(t.ases))
	var visit func(uint32) error
	visit = func(x uint32) error {
		color[x] = gray
		for _, c := range t.ases[x].Customers {
			switch color[c] {
			case gray:
				return fmt.Errorf("topology: p2c cycle through %d and %d", x, c)
			case white:
				if err := visit(c); err != nil {
					return err
				}
			}
		}
		color[x] = black
		return nil
	}
	for _, asn := range t.order {
		if color[asn] == white {
			if err := visit(asn); err != nil {
				return err
			}
		}
	}

	// Clique checks.
	tier1 := t.Tier1s()
	for _, x := range tier1 {
		if len(t.ases[x].Providers) != 0 {
			return fmt.Errorf("topology: tier-1 AS %d has a provider", x)
		}
		for _, y := range tier1 {
			if x < y && t.Rel(x, y) != P2P {
				return fmt.Errorf("topology: tier-1 ASes %d and %d are not peered", x, y)
			}
		}
	}

	// Adjacency/relationship agreement.
	var linkCount int
	for _, asn := range t.order {
		a := t.ases[asn]
		linkCount += len(a.Providers) + len(a.Customers) + len(a.Peers)
		for _, p := range a.Providers {
			if t.Rel(p, asn) != P2C {
				return fmt.Errorf("topology: %d lists provider %d but rel is %v", asn, p, t.Rel(p, asn))
			}
		}
		for _, c := range a.Customers {
			if t.Rel(asn, c) != P2C {
				return fmt.Errorf("topology: %d lists customer %d but rel is %v", asn, c, t.Rel(asn, c))
			}
		}
		for _, p := range a.Peers {
			if t.Rel(asn, p) != P2P {
				return fmt.Errorf("topology: %d lists peer %d but rel is %v", asn, p, t.Rel(asn, p))
			}
		}
	}
	if linkCount != 2*len(t.rels) {
		return fmt.Errorf("topology: adjacency lists cover %d half-links, want %d", linkCount, 2*len(t.rels))
	}
	return nil
}

// Stats summarizes a topology for reporting.
type Stats struct {
	ASes     int
	Links    int
	P2CLinks int
	P2PLinks int
	Tier1s   int
	Transit  int
	Stubs    int
	Content  int
	Prefixes int
}

// Stats computes summary counts.
func (t *Topology) Stats() Stats {
	var s Stats
	s.ASes = len(t.ases)
	s.Links = len(t.rels)
	for _, r := range t.rels {
		if r == P2P {
			s.P2PLinks++
		} else {
			s.P2CLinks++
		}
	}
	for _, a := range t.ases {
		switch a.Class {
		case ClassTier1:
			s.Tier1s++
		case ClassTransit:
			s.Transit++
		case ClassStub:
			s.Stubs++
		case ClassContent:
			s.Content++
		}
		s.Prefixes += len(a.Prefixes)
	}
	return s
}
