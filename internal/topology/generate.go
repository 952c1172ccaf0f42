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

// builder carries the working state of a synthetic Internet. Generate
// builds the base topology with it; GenerateSeries keeps it and grows
// each later snapshot with the same code.
type builder struct {
	p    Params
	rng  *stats.RNG
	topo *Topology
	// created ASNs by class, in creation order. newAS only ever raises
	// nextASN, so creation order is ascending-ASN order.
	tier1s   []uint32
	transits []uint32
	contents []uint32
	stubs    []uint32

	nextASN    uint32
	nextPrefix uint32
}

// Generate builds a synthetic Internet. It panics only on programming
// errors; all randomized choices respect the structural invariants
// checked by (*Topology).Validate.
func Generate(p Params) *Topology { return generate(p).topo }

func generate(p Params) *builder {
	if p.ASes < p.Tier1s+2 {
		panic(fmt.Sprintf("topology: ASes=%d too small for Tier1s=%d", p.ASes, p.Tier1s))
	}
	if p.Regions < 1 {
		p.Regions = 1
	}
	b := &builder{
		p:       p,
		rng:     stats.NewRNG(p.Seed),
		topo:    New(),
		nextASN: 1,
	}
	nTransit := int(float64(p.ASes) * p.TransitFrac)
	nContent := int(float64(p.ASes) * p.ContentFrac)
	nStub := p.ASes - p.Tier1s - nTransit - nContent

	b.makeTier1s()
	b.makeTransits(nTransit)
	b.makeContents(nContent)
	b.makeStubs(nStub)
	b.peerAtIXPs()
	b.assignPrefixes()
	return b
}

func (b *builder) newAS(class Class, region int) *AS {
	b.nextASN += uint32(1 + b.rng.Intn(12))
	a := &AS{ASN: b.nextASN, Class: class, Region: region}
	b.topo.AddAS(a)
	return a
}

func (b *builder) makeTier1s() {
	for i := 0; i < b.p.Tier1s; i++ {
		a := b.newAS(ClassTier1, i%b.p.Regions)
		b.tier1s = append(b.tier1s, a.ASN)
	}
	for i, x := range b.tier1s {
		for _, y := range b.tier1s[i+1:] {
			mustLink(b.topo.AddP2P(x, y))
		}
	}
}

// The two attachment rules. Both are regional preferential attachment:
// providers with more customers attract more (so the biggest networks
// snowball, as in the real Internet where tier-1s hold the largest
// customer bases), same-region providers 3x more. They differ only in
// the tier-1s: providerWeight, the base topology's rule, treats them as
// global carriers with the regional boost everywhere; regionalWeight,
// the series growth step's rule, boosts them only in their own region.
// Either change would move every generated series.

// providerWeight weighs a provider candidate for a new AS in region
// when building the base topology.
func providerWeight(region int) func(*AS) float64 {
	return func(cand *AS) float64 {
		w := float64(len(cand.Customers) + 1)
		if cand.Region == region || cand.Class == ClassTier1 {
			w *= 3
		}
		return w
	}
}

// regionalWeight weighs a provider candidate for a new AS in region
// when growing a series snapshot.
func regionalWeight(region int) func(*AS) float64 {
	return func(cand *AS) float64 {
		w := float64(len(cand.Customers) + 1)
		if cand.Region == region {
			w *= 3
		}
		return w
	}
}

// pickProviders draws n distinct providers (all of candidates if there
// are fewer) from candidates, all created earlier, each draw in
// proportion to weight among those not yet drawn.
func (b *builder) pickProviders(candidates []uint32, n int, weight func(*AS) float64) []uint32 {
	n = min(n, len(candidates))
	weights := make([]float64, len(candidates))
	for i, asn := range candidates {
		weights[i] = weight(b.topo.AS(asn))
	}
	out := make([]uint32, 0, n)
	for len(out) < n {
		i := b.rng.WeightedIndex(weights)
		weights[i] = 0
		out = append(out, candidates[i])
	}
	return out
}

// addTransit creates a transit AS in region that buys from the clique
// and earlier transits.
func (b *builder) addTransit(region int, weight func(*AS) float64) {
	a := b.newAS(ClassTransit, region)
	candidates := append(append([]uint32(nil), b.tier1s...), b.transits...)
	count := 1 + b.rng.Geometric(b.p.MultihomeP)
	for _, prov := range b.pickProviders(candidates, count, weight) {
		mustLink(b.topo.AddP2C(prov, a.ASN))
	}
	b.transits = append(b.transits, a.ASN)
}

// addStub creates a stub AS in region. Stubs buy from the transit tier
// and the clique alike; preferential attachment concentrates customers
// on the largest providers.
func (b *builder) addStub(region int, weight func(*AS) float64) {
	a := b.newAS(ClassStub, region)
	candidates := append(append([]uint32(nil), b.transits...), b.tier1s...)
	count := 1 + b.rng.Geometric(b.p.MultihomeP)
	for _, prov := range b.pickProviders(candidates, count, weight) {
		mustLink(b.topo.AddP2C(prov, a.ASN))
	}
	b.stubs = append(b.stubs, a.ASN)
}

// peerWithTransits peers asn with n transit ASes drawn uniformly.
func (b *builder) peerWithTransits(asn uint32, n int) {
	for _, idx := range b.rng.SampleInts(len(b.transits), n) {
		tr := b.transits[idx]
		if !b.topo.HasLink(tr, asn) {
			mustLink(b.topo.AddP2P(tr, asn))
		}
	}
}

func (b *builder) makeTransits(n int) {
	for i := 0; i < n; i++ {
		region := b.rng.Intn(b.p.Regions)
		b.addTransit(region, providerWeight(region))
	}
}

func (b *builder) makeContents(n int) {
	for i := 0; i < n; i++ {
		region := b.rng.Intn(b.p.Regions)
		a := b.newAS(ClassContent, region)
		providerless := b.rng.Bool(b.p.ProviderlessContentFrac)
		if !providerless {
			candidates := append(append([]uint32(nil), b.tier1s...), b.transits...)
			count := 1 + b.rng.Geometric(0.7)
			for _, prov := range b.pickProviders(candidates, count, providerWeight(region)) {
				mustLink(b.topo.AddP2C(prov, a.ASN))
			}
		} else {
			// A provider-less network must peer with the whole clique to
			// stay globally reachable under valley-free export.
			for _, t1 := range b.tier1s {
				mustLink(b.topo.AddP2P(t1, a.ASN))
			}
		}
		// Broad peering with the transit tier.
		b.peerWithTransits(a.ASN, int(float64(len(b.transits))*b.p.ContentPeerFrac))
		b.contents = append(b.contents, a.ASN)
	}
}

func (b *builder) makeStubs(n int) {
	for i := 0; i < n; i++ {
		region := b.rng.Intn(b.p.Regions)
		b.addStub(region, providerWeight(region))
	}
}

// peerAtIXPs creates exchange points and peers co-located members.
// Tier-1s do not participate (their peering is the clique itself);
// stubs participate rarely.
func (b *builder) peerAtIXPs() {
	for ixp := 0; ixp < b.p.IXPs; ixp++ {
		region := ixp % b.p.Regions
		var members []uint32
		for _, asn := range b.transits {
			a := b.topo.AS(asn)
			if a.Region == region && b.rng.Bool(0.6) {
				members = append(members, asn)
			}
		}
		for _, asn := range b.contents {
			if b.rng.Bool(0.4) {
				members = append(members, asn)
			}
		}
		for _, asn := range b.stubs {
			a := b.topo.AS(asn)
			if a.Region == region && b.rng.Bool(0.03) {
				members = append(members, asn)
			}
		}
		for i, x := range members {
			for _, y := range members[i+1:] {
				if b.topo.HasLink(x, y) {
					continue
				}
				// Peering is assortative: similar-size networks peer.
				cx, cy := len(b.topo.AS(x).Customers), len(b.topo.AS(y).Customers)
				prob := b.p.IXPPeerProb
				if cx > 4*(cy+1) || cy > 4*(cx+1) {
					prob /= 6 // size mismatch discourages peering
				}
				if b.rng.Bool(prob) {
					mustLink(b.topo.AddP2P(x, y))
				}
			}
		}
	}
}

func (b *builder) assignPrefixes() {
	for _, asn := range b.topo.order {
		a := b.topo.AS(asn)
		var count int
		switch a.Class {
		case ClassTier1:
			count = b.rng.Pareto(1.8, 8, 2*maxPrefixes)
		case ClassTransit:
			count = b.rng.Pareto(1.8, 2, maxPrefixes)
		case ClassContent:
			count = b.rng.Pareto(1.5, 4, 4*maxPrefixes)
		default:
			count = 1 + b.rng.Geometric(0.6)
		}
		for i := 0; i < count; i++ {
			a.Prefixes = append(a.Prefixes, b.allocPrefix())
		}
	}
}

// allocPrefix carves sequential /24s from 1.0.0.0 upward; the synthetic
// address plan only needs uniqueness.
func (b *builder) allocPrefix() netip.Prefix {
	base := uint32(0x01000000) + b.nextPrefix*256
	b.nextPrefix++
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
