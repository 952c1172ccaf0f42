package paths

import (
	"cmp"
	"encoding/binary"
	"net/netip"
	"slices"
	"strings"

	"github.com/asrank-go/asrank/internal/bgp"
)

// WireHops is the one rule that turns the AS_PATH a peer announced into
// the hops of a corpus row. A path with an AS_SET segment (an aggregate,
// discarded as in the paper) or no hops at all is unusable and gives nil
// — to a route table, an announcement that replaces the previous route
// with nothing. Otherwise the peer AS is put in front when absent, which
// prepended reports, so that hops[0] is always the vantage point.
func WireHops(peer uint32, path bgp.ASPath) (hops []uint32, prepended bool) {
	hops = path.Flatten()
	switch {
	case len(hops) == 0 || path.HasSet():
		return nil, false
	case hops[0] != peer:
		return append([]uint32{peer}, hops...), true
	}
	return hops, false
}

// PrefixKey is a netip.Prefix flattened to plain integers: the prefix
// identity of a corpus row, and the only form a prefix takes in a map
// key, so Sanitize's duplicate collapse, the cone weights, RIB and the
// streaming engine agree on which routes are one row. A netip.Prefix
// carries a unique.Handle, which sends every map operation through the
// generic struct hash.
type PrefixKey struct {
	Hi, Lo uint64 // address bits; zero for every invalid prefix
	Bits   int32  // prefix length, +256 unless IPv4; -1 for every invalid prefix
}

// FlatPrefix keeps apart exactly the prefixes Prefix.String keeps apart:
// a.b.c.d/24 differs from ::ffff:a.b.c.d/120 and from ::ffff:a.b.c.d/24,
// unmasked host bits are significant, and all invalid prefixes are one.
func FlatPrefix(p netip.Prefix) PrefixKey {
	if !p.IsValid() {
		return PrefixKey{Bits: -1}
	}
	a := p.Addr().As16()
	k := PrefixKey{
		Hi:   binary.BigEndian.Uint64(a[:8]),
		Lo:   binary.BigEndian.Uint64(a[8:]),
		Bits: int32(p.Bits()),
	}
	if !p.Addr().Is4() {
		k.Bits += 256
	}
	return k
}

// CanonicalPrefix is the prefix p announces in the one form the cone
// weights count it under: an IPv4-mapped IPv6 prefix
// (::ffff:a.b.c.d/96+n, which an MRT feed may carry) unmapped to
// a.b.c.d/n, and host bits masked off — so a.b.c.0/24,
// ::ffff:a.b.c.0/120 and a.b.c.d/24 are one prefix. An invalid prefix
// stays invalid.
func CanonicalPrefix(p netip.Prefix) netip.Prefix {
	if !p.IsValid() {
		return netip.Prefix{}
	}
	addr, bits := p.Addr(), p.Bits()
	if addr.Is4In6() && bits >= 96 {
		addr, bits = addr.Unmap(), bits-96
	}
	canon, _ := addr.Prefix(bits) // bits fits addr's family: p was valid
	return canon
}

// IsValid reports whether k flattens a valid prefix.
func (k PrefixKey) IsValid() bool { return k.Bits >= 0 }

// Compare orders keys by address bits, then length.
func (k PrefixKey) Compare(o PrefixKey) int {
	return cmp.Or(cmp.Compare(k.Hi, o.Hi), cmp.Compare(k.Lo, o.Lo), cmp.Compare(k.Bits, o.Bits))
}

// Route returns the key of p as a route, given p's flat key k. Every
// invalid prefix is one row key, but an invalid netip.Prefix still has
// an address and a family, and two routes that differ in either are two
// routes — withdrawing one must not withdraw the other; Bits below zero
// encodes the family.
func (k PrefixKey) Route(p netip.Prefix) PrefixKey {
	if k.IsValid() {
		return k
	}
	a := p.Addr().As16()
	k = PrefixKey{Hi: binary.BigEndian.Uint64(a[:8]), Lo: binary.BigEndian.Uint64(a[8:]), Bits: -1}
	switch {
	case p.Addr().Is4():
		k.Bits = -2
	case p.Addr().Is6():
		k.Bits = -3
	}
	return k
}

// OriginPrefix identifies one origin's announcement of one prefix, the
// unit the prefix and address cone weights count. It is a PrefixKey's
// fields with the origin in the padding after Bits: 24 bytes with no
// hole, so a map keyed by it hashes the memory in one call instead of
// field by field.
type OriginPrefix struct {
	Hi, Lo uint64
	Bits   int32
	Origin uint32
}

// WithOrigin returns the key of origin's announcement of k.
func (k PrefixKey) WithOrigin(origin uint32) OriginPrefix {
	return OriginPrefix{Hi: k.Hi, Lo: k.Lo, Bits: k.Bits, Origin: origin}
}

// RIB is the route table a collection converges to, under plain BGP
// semantics: the latest announcement per (collector, vantage point,
// prefix) wins, and a withdrawal — or an announcement with nil hops,
// WireHops' unusable path — deletes the route. It holds the live routes
// and nothing else, however long they churn. Not safe for concurrent
// use.
type RIB struct {
	routes map[routeKey]Path
}

type routeKey struct {
	prefix    PrefixKey // PrefixKey.Route
	collector string
	vp        uint32
}

// NewRIB returns an empty table.
func NewRIB() *RIB { return &RIB{routes: make(map[routeKey]Path)} }

// Announce replaces vp's route to prefix at the named collector. The
// table keeps hops, read-only from then on (see Path): the NLRI of one
// UPDATE share one slice.
func (r *RIB) Announce(collector string, vp uint32, prefix netip.Prefix, hops []uint32) {
	k := routeKey{FlatPrefix(prefix).Route(prefix), collector, vp}
	if hops == nil {
		delete(r.routes, k)
		return
	}
	r.routes[k] = Path{Collector: collector, Prefix: prefix, ASNs: hops}
}

// Withdraw deletes vp's route to prefix, if it has one.
func (r *RIB) Withdraw(collector string, vp uint32, prefix netip.Prefix) {
	delete(r.routes, routeKey{FlatPrefix(prefix).Route(prefix), collector, vp})
}

// Dataset returns the live routes as a corpus: one row per route, in
// (collector, vantage point, prefix) order whatever order they arrived
// in.
func (r *RIB) Dataset() *Dataset {
	keys := make([]routeKey, 0, len(r.routes))
	for k := range r.routes {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b routeKey) int {
		return cmp.Or(strings.Compare(a.collector, b.collector), cmp.Compare(a.vp, b.vp), a.prefix.Compare(b.prefix))
	})
	ds := &Dataset{Paths: make([]Path, 0, len(keys))}
	for _, k := range keys {
		ds.Add(r.routes[k])
	}
	return ds
}
