package topology

import (
	"net/netip"

	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stats"
)

// EvolveParams controls longitudinal snapshot generation, mimicking the
// paper's 1998–2013 study window: the Internet grows, the clique
// expands, and peering densifies ("flattening").
type EvolveParams struct {
	// Snapshots is the number of snapshots to produce (including the
	// initial topology).
	Snapshots int
	// CliquePromotions is the total number of transit ASes promoted to
	// the clique across the series.
	CliquePromotions int
}

// Each step of a series grows the previous snapshot by these fractions.
// Peering links are added faster than the AS population grows,
// reproducing the flattening trend of the paper's study window.
const (
	growthPerSnapshot = 0.08 // new ASes, relative to the current size
	peeringGrowth     = 0.10 // new peering links, relative to the current link count
	providerChurn     = 0.02 // stubs that switch one provider
)

// DefaultEvolveParams returns the series parameters used by the
// longitudinal experiments: 16 snapshots and 4 clique promotions.
func DefaultEvolveParams() EvolveParams {
	return EvolveParams{Snapshots: 16, CliquePromotions: 4}
}

// Clone deep-copies a topology.
func (t *Topology) Clone() *Topology {
	nt := New()
	for _, asn := range t.order {
		a := t.ases[asn]
		na := &AS{
			ASN:       a.ASN,
			Class:     a.Class,
			Region:    a.Region,
			Providers: append([]uint32(nil), a.Providers...),
			Customers: append([]uint32(nil), a.Customers...),
			Peers:     append([]uint32(nil), a.Peers...),
			Prefixes:  append([]netip.Prefix(nil), a.Prefixes...),
		}
		nt.ases[na.ASN] = na
		nt.order = append(nt.order, na.ASN)
	}
	for l, r := range t.rels {
		nt.rels[l] = r
	}
	return nt
}

// GenerateSeries produces a sequence of evolving snapshots. The first
// snapshot is Generate(p); each subsequent snapshot grows the previous
// one. AS identities are stable across snapshots, so rank trajectories
// are meaningful.
func GenerateSeries(p Params, e EvolveParams) []*Topology {
	if e.Snapshots < 1 {
		e.Snapshots = 1
	}
	out := make([]*Topology, 0, e.Snapshots)
	cur := Generate(p)
	out = append(out, cur)
	rng := stats.NewRNG(p.Seed + 1)
	promotionsLeft := e.CliquePromotions
	for i := 1; i < e.Snapshots; i++ {
		next := cur.Clone()
		ev := &evolver{topo: next, rng: rng.Split(int64(i)), params: p}
		ev.index()
		ev.grow()
		ev.densifyPeering()
		ev.churnProviders()
		if promotionsLeft > 0 && i%(max(1, e.Snapshots/max(1, e.CliquePromotions))) == 0 {
			if ev.promoteToClique() {
				promotionsLeft--
			}
		}
		ev.assignNewPrefixes()
		out = append(out, next)
		cur = next
	}
	return out
}

type evolver struct {
	topo   *Topology
	rng    *stats.RNG
	params Params

	tier1s, transits, contents, stubs []uint32
	pos                               map[uint32]int
	nextASN                           uint32
	newASes                           []uint32
}

func (e *evolver) index() {
	e.pos = make(map[uint32]int, len(e.topo.order))
	for i, asn := range e.topo.order {
		e.pos[asn] = i
		if asn > e.nextASN {
			e.nextASN = asn
		}
		switch e.topo.AS(asn).Class {
		case ClassTier1:
			e.tier1s = append(e.tier1s, asn)
		case ClassTransit:
			e.transits = append(e.transits, asn)
		case ClassContent:
			e.contents = append(e.contents, asn)
		case ClassStub:
			e.stubs = append(e.stubs, asn)
		}
	}
}

func (e *evolver) newAS(class Class, region int) *AS {
	e.nextASN += uint32(1 + e.rng.Intn(12))
	a := &AS{ASN: e.nextASN, Class: class, Region: region}
	e.pos[a.ASN] = len(e.topo.order)
	e.topo.AddAS(a)
	e.newASes = append(e.newASes, a.ASN)
	return a
}

func (e *evolver) pickProviders(candidates []uint32, region, n int) []uint32 {
	if n > len(candidates) {
		n = len(candidates)
	}
	chosen := make(map[uint32]bool, n)
	out := make([]uint32, 0, n)
	for len(out) < n {
		weights := make([]float64, len(candidates))
		for i, asn := range candidates {
			if chosen[asn] {
				continue
			}
			cand := e.topo.AS(asn)
			w := float64(len(cand.Customers) + 1)
			if cand.Region == region {
				w *= 3
			}
			weights[i] = w
		}
		asn := candidates[e.rng.WeightedIndex(weights)]
		chosen[asn] = true
		out = append(out, asn)
	}
	return out
}

// grow adds new ASes: mostly stubs, some transit and content, matching
// the historical mix.
func (e *evolver) grow() {
	n := int(float64(e.topo.NumASes()) * growthPerSnapshot)
	for i := 0; i < n; i++ {
		region := e.rng.Intn(max(1, e.params.Regions))
		r := e.rng.Float64()
		switch {
		case r < 0.08:
			a := e.newAS(ClassTransit, region)
			cands := append(append([]uint32(nil), e.tier1s...), e.transits...)
			for _, prov := range e.pickProviders(cands, region, 1+e.rng.Geometric(e.params.MultihomeP)) {
				mustLink(e.topo.AddP2C(prov, a.ASN))
			}
			e.transits = append(e.transits, a.ASN)
		case r < 0.12:
			a := e.newAS(ClassContent, region)
			cands := append(append([]uint32(nil), e.tier1s...), e.transits...)
			for _, prov := range e.pickProviders(cands, region, 1) {
				mustLink(e.topo.AddP2C(prov, a.ASN))
			}
			nPeers := int(float64(len(e.transits)) * e.params.ContentPeerFrac / 2)
			for _, idx := range e.rng.SampleInts(len(e.transits), nPeers) {
				tr := e.transits[idx]
				if !e.topo.HasLink(tr, a.ASN) {
					mustLink(e.topo.AddP2P(tr, a.ASN))
				}
			}
			e.contents = append(e.contents, a.ASN)
		default:
			a := e.newAS(ClassStub, region)
			cands := append(append([]uint32(nil), e.transits...), e.tier1s...)
			for _, prov := range e.pickProviders(cands, region, 1+e.rng.Geometric(e.params.MultihomeP)) {
				mustLink(e.topo.AddP2C(prov, a.ASN))
			}
			e.stubs = append(e.stubs, a.ASN)
		}
	}
}

// densifyPeering adds peering links between transit/content ASes,
// modeling the flattening of the hierarchy over time.
func (e *evolver) densifyPeering() {
	n := int(float64(e.topo.NumLinks()) * peeringGrowth)
	pool := append(append([]uint32(nil), e.transits...), e.contents...)
	if len(pool) < 2 {
		return
	}
	for added, attempts := 0, 0; added < n && attempts < 20*n; attempts++ {
		x := pool[e.rng.Intn(len(pool))]
		y := pool[e.rng.Intn(len(pool))]
		if x == y || e.topo.HasLink(x, y) {
			continue
		}
		if e.topo.AddP2P(x, y) == nil {
			added++
		}
	}
}

// churnProviders makes a fraction of stubs switch one provider,
// preserving acyclicity by only selecting providers created earlier
// than the customer.
func (e *evolver) churnProviders() {
	n := int(float64(len(e.stubs)) * providerChurn)
	for i := 0; i < n && len(e.transits) > 1; i++ {
		asn := e.stubs[e.rng.Intn(len(e.stubs))]
		a := e.topo.AS(asn)
		if len(a.Providers) == 0 {
			continue
		}
		// Pick a replacement transit created before this stub.
		var cands []uint32
		for _, tr := range e.transits {
			if e.pos[tr] < e.pos[asn] && !e.topo.HasLink(tr, asn) {
				cands = append(cands, tr)
			}
		}
		if len(cands) == 0 {
			continue
		}
		old := a.Providers[e.rng.Intn(len(a.Providers))]
		e.removeLink(old, asn)
		repl := cands[e.rng.Intn(len(cands))]
		mustLink(e.topo.AddP2C(repl, asn))
	}
}

// promoteToClique turns the biggest non-member transit AS into a tier-1:
// it sheds its providers (converting those links to peering) and peers
// with every clique member.
func (e *evolver) promoteToClique() bool {
	var best uint32
	bestCustomers := -1
	for _, tr := range e.transits {
		a := e.topo.AS(tr)
		if len(a.Customers) > bestCustomers {
			best, bestCustomers = tr, len(a.Customers)
		}
	}
	if bestCustomers < 0 {
		return false
	}
	a := e.topo.AS(best)
	for _, prov := range append([]uint32(nil), a.Providers...) {
		e.removeLink(prov, best)
		if !e.topo.HasLink(prov, best) {
			mustLink(e.topo.AddP2P(prov, best))
		}
	}
	for _, t1 := range e.tier1s {
		if !e.topo.HasLink(t1, best) {
			mustLink(e.topo.AddP2P(t1, best))
		} else if e.topo.Rel(t1, best) != P2P {
			e.removeLink(t1, best)
			mustLink(e.topo.AddP2P(t1, best))
		}
	}
	a.Class = ClassTier1
	e.tier1s = append(e.tier1s, best)
	for i, tr := range e.transits {
		if tr == best {
			e.transits = append(e.transits[:i], e.transits[i+1:]...)
			break
		}
	}
	return true
}

// removeLink deletes whatever relationship exists between x and y,
// fixing up both adjacency lists.
func (e *evolver) removeLink(x, y uint32) {
	rel := e.topo.Rel(x, y)
	if rel == None {
		return
	}
	delete(e.topo.rels, paths.NewLink(x, y))
	ax, ay := e.topo.AS(x), e.topo.AS(y)
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

func (e *evolver) assignNewPrefixes() {
	// Continue the /24 allocation after the highest existing prefix.
	var maxIdx uint32
	for _, asn := range e.topo.order {
		for _, p := range e.topo.AS(asn).Prefixes {
			b := p.Addr().As4()
			idx := (uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8) - 0x01000000
			idx /= 256
			if idx >= maxIdx {
				maxIdx = idx + 1
			}
		}
	}
	for _, asn := range e.newASes {
		a := e.topo.AS(asn)
		count := 1 + e.rng.Geometric(0.6)
		for i := 0; i < count; i++ {
			base := uint32(0x01000000) + maxIdx*256
			maxIdx++
			a.Prefixes = append(a.Prefixes, netip.PrefixFrom(netip.AddrFrom4([4]byte{
				byte(base >> 24), byte(base >> 16), byte(base >> 8), byte(base),
			}), 24))
		}
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
