package topology

import (
	"net/netip"
	"slices"

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
// snapshot is Generate(p); each subsequent snapshot grows a clone of
// the previous one with the builder that made it, so AS numbers and
// /24s carry on where the last step left them. AS identities are
// stable across snapshots, so rank trajectories are meaningful.
func GenerateSeries(p Params, e EvolveParams) []*Topology {
	if e.Snapshots < 1 {
		e.Snapshots = 1
	}
	b := generate(p)
	out := make([]*Topology, 0, e.Snapshots)
	out = append(out, b.topo)
	rng := stats.NewRNG(p.Seed + 1)
	promotionsLeft := e.CliquePromotions
	for i := 1; i < e.Snapshots; i++ {
		b.topo, b.rng = b.topo.Clone(), rng.Split(int64(i))
		born := len(b.topo.order)
		b.grow()
		b.densifyPeering()
		b.churnProviders()
		if promotionsLeft > 0 && i%(max(1, e.Snapshots/max(1, e.CliquePromotions))) == 0 {
			if b.promoteToClique() {
				promotionsLeft--
			}
		}
		for _, asn := range b.topo.order[born:] {
			a := b.topo.AS(asn)
			for n := 1 + b.rng.Geometric(0.6); n > 0; n-- {
				a.Prefixes = append(a.Prefixes, b.allocPrefix())
			}
		}
		out = append(out, b.topo)
	}
	return out
}

// grow adds new ASes: mostly stubs, some transit and content, matching
// the historical mix.
func (b *builder) grow() {
	n := int(float64(b.topo.NumASes()) * growthPerSnapshot)
	for i := 0; i < n; i++ {
		region := b.rng.Intn(b.p.Regions)
		switch r := b.rng.Float64(); {
		case r < 0.08:
			b.addTransit(region, regionalWeight(region))
		case r < 0.12:
			// A newcomer content network buys from exactly one provider
			// and peers with half the base share of the transit tier.
			a := b.newAS(ClassContent, region)
			candidates := append(append([]uint32(nil), b.tier1s...), b.transits...)
			for _, prov := range b.pickProviders(candidates, 1, regionalWeight(region)) {
				mustLink(b.topo.AddP2C(prov, a.ASN))
			}
			b.peerWithTransits(a.ASN, int(float64(len(b.transits))*b.p.ContentPeerFrac/2))
			b.contents = append(b.contents, a.ASN)
		default:
			b.addStub(region, regionalWeight(region))
		}
	}
}

// densifyPeering adds peering links between transit/content ASes,
// modeling the flattening of the hierarchy over time.
func (b *builder) densifyPeering() {
	n := int(float64(b.topo.NumLinks()) * peeringGrowth)
	pool := append(append([]uint32(nil), b.transits...), b.contents...)
	if len(pool) < 2 {
		return
	}
	for added, attempts := 0, 0; added < n && attempts < 20*n; attempts++ {
		x := pool[b.rng.Intn(len(pool))]
		y := pool[b.rng.Intn(len(pool))]
		if x == y || b.topo.HasLink(x, y) {
			continue
		}
		if b.topo.AddP2P(x, y) == nil {
			added++
		}
	}
}

// churnProviders makes a fraction of stubs switch one provider,
// preserving acyclicity by only selecting providers created earlier
// than the customer — that is, with a lower ASN.
func (b *builder) churnProviders() {
	n := int(float64(len(b.stubs)) * providerChurn)
	for i := 0; i < n && len(b.transits) > 1; i++ {
		asn := b.stubs[b.rng.Intn(len(b.stubs))]
		a := b.topo.AS(asn)
		if len(a.Providers) == 0 {
			continue
		}
		// Pick a replacement transit created before this stub.
		var cands []uint32
		for _, tr := range b.transits {
			if tr < asn && !b.topo.HasLink(tr, asn) {
				cands = append(cands, tr)
			}
		}
		if len(cands) == 0 {
			continue
		}
		old := a.Providers[b.rng.Intn(len(a.Providers))]
		b.topo.removeLink(old, asn)
		repl := cands[b.rng.Intn(len(cands))]
		mustLink(b.topo.AddP2C(repl, asn))
	}
}

// promoteToClique turns the biggest non-member transit AS into a tier-1:
// it sheds its providers (converting those links to peering) and peers
// with every clique member. The class lists stay in creation order.
func (b *builder) promoteToClique() bool {
	var best uint32
	bestCustomers := -1
	for _, tr := range b.transits {
		a := b.topo.AS(tr)
		if len(a.Customers) > bestCustomers {
			best, bestCustomers = tr, len(a.Customers)
		}
	}
	if bestCustomers < 0 {
		return false
	}
	a := b.topo.AS(best)
	for _, prov := range append([]uint32(nil), a.Providers...) {
		b.topo.removeLink(prov, best)
		if !b.topo.HasLink(prov, best) {
			mustLink(b.topo.AddP2P(prov, best))
		}
	}
	for _, t1 := range b.tier1s {
		if !b.topo.HasLink(t1, best) {
			mustLink(b.topo.AddP2P(t1, best))
		} else if b.topo.Rel(t1, best) != P2P {
			b.topo.removeLink(t1, best)
			mustLink(b.topo.AddP2P(t1, best))
		}
	}
	a.Class = ClassTier1
	i, _ := slices.BinarySearch(b.transits, best)
	b.transits = slices.Delete(b.transits, i, i+1)
	i, _ = slices.BinarySearch(b.tier1s, best)
	b.tier1s = slices.Insert(b.tier1s, i, best)
	return true
}
