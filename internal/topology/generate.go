package topology

import (
	"fmt"
	"net/netip"

	"github.com/asrank-go/asrank/internal/stats"
)

// Params controls synthetic Internet generation. The defaults mimic the
// gross structure of the 2013 Internet scaled down: a ~dozen-member
// tier-1 clique, a transit middle tier, a large multihomed stub edge,
// and content networks that peer broadly and buy little transit.
type Params struct {
	Seed int64

	// ASes is the total number of ASes to create.
	ASes int
	// Tier1s is the size of the top clique.
	Tier1s int
	// TransitFrac and ContentFrac are the fractions of ASes that are
	// transit providers and content networks; the remainder are stubs.
	TransitFrac, ContentFrac float64

	// Regions is the number of geographic regions used to localize
	// provider choice and peering.
	Regions int

	// MultihomeP is the success probability of the geometric draw for
	// extra providers: lower means more multihoming.
	MultihomeP float64

	// IXPs is the number of exchange points; IXPPeerProb is the
	// probability two co-located members peer.
	IXPs        int
	IXPPeerProb float64

	// ContentPeerFrac is the fraction of the transit tier each content
	// network peers with.
	ContentPeerFrac float64

	// ProviderlessContentFrac is the fraction of content networks with
	// no providers at all (reachable only via peering).
	ProviderlessContentFrac float64
}

// maxPrefixes scales the per-class bound on an AS's prefix count.
const maxPrefixes = 48

// DefaultParams returns the baseline parameters used by the experiments.
func DefaultParams(seed int64) Params {
	return Params{
		Seed:                    seed,
		ASes:                    4000,
		Tier1s:                  12,
		TransitFrac:             0.13,
		ContentFrac:             0.03,
		Regions:                 5,
		MultihomeP:              0.55,
		IXPs:                    8,
		IXPPeerProb:             0.35,
		ContentPeerFrac:         0.35,
		ProviderlessContentFrac: 0.4,
	}
}

// generator carries the working state of one Generate call.
type generator struct {
	p    Params
	rng  *stats.RNG
	topo *Topology
	// created ASNs by class, in creation order
	tier1s   []uint32
	transits []uint32
	contents []uint32
	stubs    []uint32
	// pos is each AS's creation index: provider edges must go from a
	// lower to a higher index, which keeps the hierarchy acyclic.
	pos map[uint32]int

	nextASN    uint32
	nextPrefix uint32
}

// Generate builds a synthetic Internet. It panics only on programming
// errors; all randomized choices respect the structural invariants
// checked by (*Topology).Validate.
func Generate(p Params) *Topology {
	if p.ASes < p.Tier1s+2 {
		panic(fmt.Sprintf("topology: ASes=%d too small for Tier1s=%d", p.ASes, p.Tier1s))
	}
	if p.Regions < 1 {
		p.Regions = 1
	}
	g := &generator{
		p:       p,
		rng:     stats.NewRNG(p.Seed),
		topo:    New(),
		pos:     make(map[uint32]int),
		nextASN: 1,
	}
	nTransit := int(float64(p.ASes) * p.TransitFrac)
	nContent := int(float64(p.ASes) * p.ContentFrac)
	nStub := p.ASes - p.Tier1s - nTransit - nContent

	g.makeTier1s()
	g.makeTransits(nTransit)
	g.makeContents(nContent)
	g.makeStubs(nStub)
	g.peerAtIXPs()
	g.assignPrefixes()
	return g.topo
}

func (g *generator) newAS(class Class, region int) *AS {
	g.nextASN += uint32(1 + g.rng.Intn(12))
	a := &AS{ASN: g.nextASN, Class: class, Region: region}
	g.pos[a.ASN] = len(g.topo.order)
	g.topo.AddAS(a)
	return a
}

func (g *generator) makeTier1s() {
	for i := 0; i < g.p.Tier1s; i++ {
		a := g.newAS(ClassTier1, i%g.p.Regions)
		g.tier1s = append(g.tier1s, a.ASN)
	}
	for i, x := range g.tier1s {
		for _, y := range g.tier1s[i+1:] {
			mustLink(g.topo.AddP2P(x, y))
		}
	}
}

// providerWeight implements regional preferential attachment: providers
// with more customers attract more (so the biggest networks snowball,
// as in the real Internet where tier-1s hold the largest customer
// bases), same-region providers 3x more. Tier-1s are global carriers,
// so they get the regional boost everywhere.
func (g *generator) providerWeight(cand *AS, region int) float64 {
	w := float64(len(cand.Customers) + 1)
	if cand.Region == region || cand.Class == ClassTier1 {
		w *= 3
	}
	return w
}

// pickProviders selects n distinct providers for an AS in region from
// candidates (all created earlier).
func (g *generator) pickProviders(candidates []uint32, region, n int) []uint32 {
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
			weights[i] = g.providerWeight(g.topo.AS(asn), region)
		}
		asn := candidates[g.rng.WeightedIndex(weights)]
		chosen[asn] = true
		out = append(out, asn)
	}
	return out
}

func (g *generator) makeTransits(n int) {
	for i := 0; i < n; i++ {
		region := g.rng.Intn(g.p.Regions)
		a := g.newAS(ClassTransit, region)
		// Transit providers come from the clique and earlier transits.
		candidates := append(append([]uint32(nil), g.tier1s...), g.transits...)
		count := 1 + g.rng.Geometric(g.p.MultihomeP)
		for _, prov := range g.pickProviders(candidates, region, count) {
			mustLink(g.topo.AddP2C(prov, a.ASN))
		}
		g.transits = append(g.transits, a.ASN)
	}
}

func (g *generator) makeContents(n int) {
	for i := 0; i < n; i++ {
		region := g.rng.Intn(g.p.Regions)
		a := g.newAS(ClassContent, region)
		providerless := g.rng.Bool(g.p.ProviderlessContentFrac)
		if !providerless {
			candidates := append(append([]uint32(nil), g.tier1s...), g.transits...)
			count := 1 + g.rng.Geometric(0.7)
			for _, prov := range g.pickProviders(candidates, region, count) {
				mustLink(g.topo.AddP2C(prov, a.ASN))
			}
		} else {
			// A provider-less network must peer with the whole clique to
			// stay globally reachable under valley-free export.
			for _, t1 := range g.tier1s {
				mustLink(g.topo.AddP2P(t1, a.ASN))
			}
		}
		// Broad peering with the transit tier.
		nPeers := int(float64(len(g.transits)) * g.p.ContentPeerFrac)
		for _, idx := range g.rng.SampleInts(len(g.transits), nPeers) {
			tr := g.transits[idx]
			if !g.topo.HasLink(tr, a.ASN) {
				mustLink(g.topo.AddP2P(tr, a.ASN))
			}
		}
		g.contents = append(g.contents, a.ASN)
	}
}

func (g *generator) makeStubs(n int) {
	for i := 0; i < n; i++ {
		region := g.rng.Intn(g.p.Regions)
		a := g.newAS(ClassStub, region)
		// Stubs buy from the transit tier and the clique alike;
		// preferential attachment concentrates customers on the
		// largest providers.
		candidates := append(append([]uint32(nil), g.transits...), g.tier1s...)
		count := 1 + g.rng.Geometric(g.p.MultihomeP)
		for _, prov := range g.pickProviders(candidates, region, count) {
			mustLink(g.topo.AddP2C(prov, a.ASN))
		}
		g.stubs = append(g.stubs, a.ASN)
	}
}

// peerAtIXPs creates exchange points and peers co-located members.
// Tier-1s do not participate (their peering is the clique itself);
// stubs participate rarely.
func (g *generator) peerAtIXPs() {
	for ixp := 0; ixp < g.p.IXPs; ixp++ {
		region := ixp % g.p.Regions
		var members []uint32
		for _, asn := range g.transits {
			a := g.topo.AS(asn)
			if a.Region == region && g.rng.Bool(0.6) {
				members = append(members, asn)
			}
		}
		for _, asn := range g.contents {
			if g.rng.Bool(0.4) {
				members = append(members, asn)
			}
		}
		for _, asn := range g.stubs {
			a := g.topo.AS(asn)
			if a.Region == region && g.rng.Bool(0.03) {
				members = append(members, asn)
			}
		}
		for i, x := range members {
			for _, y := range members[i+1:] {
				if g.topo.HasLink(x, y) {
					continue
				}
				// Peering is assortative: similar-size networks peer.
				cx, cy := len(g.topo.AS(x).Customers), len(g.topo.AS(y).Customers)
				prob := g.p.IXPPeerProb
				if cx > 4*(cy+1) || cy > 4*(cx+1) {
					prob /= 6 // size mismatch discourages peering
				}
				if g.rng.Bool(prob) {
					mustLink(g.topo.AddP2P(x, y))
				}
			}
		}
	}
}

func (g *generator) assignPrefixes() {
	for _, asn := range g.topo.order {
		a := g.topo.AS(asn)
		var count int
		switch a.Class {
		case ClassTier1:
			count = g.rng.Pareto(1.8, 8, 2*maxPrefixes)
		case ClassTransit:
			count = g.rng.Pareto(1.8, 2, maxPrefixes)
		case ClassContent:
			count = g.rng.Pareto(1.5, 4, 4*maxPrefixes)
		default:
			count = 1 + g.rng.Geometric(0.6)
		}
		for i := 0; i < count; i++ {
			a.Prefixes = append(a.Prefixes, g.allocPrefix())
		}
	}
}

// allocPrefix carves sequential /24s from 1.0.0.0 upward; the synthetic
// address plan only needs uniqueness.
func (g *generator) allocPrefix() netip.Prefix {
	base := uint32(0x01000000) + g.nextPrefix*256
	g.nextPrefix++
	addr := netip.AddrFrom4([4]byte{
		byte(base >> 24), byte(base >> 16), byte(base >> 8), byte(base),
	})
	return netip.PrefixFrom(addr, 24)
}

func mustLink(err error) {
	if err != nil {
		panic(err)
	}
}
