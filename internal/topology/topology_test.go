package topology

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/chaos"
)

// tiny builds a 5-AS toy topology:
//
//	1 ── 2   (tier-1 clique, peers)
//	|\   |
//	3  \ 4   (transit customers; 3-4 peer)
//	 \  /
//	  5      (stub, multihomed to 3 and 4)
func tiny(t *testing.T) *Topology {
	t.Helper()
	topo := New()
	topo.AddAS(&AS{ASN: 1, Class: ClassTier1})
	topo.AddAS(&AS{ASN: 2, Class: ClassTier1})
	topo.AddAS(&AS{ASN: 3, Class: ClassTransit})
	topo.AddAS(&AS{ASN: 4, Class: ClassTransit})
	topo.AddAS(&AS{ASN: 5, Class: ClassStub})
	for _, step := range []func() error{
		func() error { return topo.AddP2P(1, 2) },
		func() error { return topo.AddP2C(1, 3) },
		func() error { return topo.AddP2C(1, 4) },
		func() error { return topo.AddP2C(2, 4) },
		func() error { return topo.AddP2P(3, 4) },
		func() error { return topo.AddP2C(3, 5) },
		func() error { return topo.AddP2C(4, 5) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	return topo
}

func TestRelOrientation(t *testing.T) {
	topo := tiny(t)
	if topo.Rel(1, 3) != P2C {
		t.Errorf("Rel(1,3) = %v", topo.Rel(1, 3))
	}
	if topo.Rel(3, 1) != C2P {
		t.Errorf("Rel(3,1) = %v", topo.Rel(3, 1))
	}
	if topo.Rel(3, 4) != P2P || topo.Rel(4, 3) != P2P {
		t.Error("peering should be symmetric")
	}
	if topo.Rel(1, 5) != None {
		t.Error("unlinked pair should be None")
	}
}

func TestRelationshipStringInvert(t *testing.T) {
	if P2C.String() != "p2c" || C2P.String() != "c2p" || P2P.String() != "p2p" || None.String() != "none" {
		t.Error("relationship strings wrong")
	}
	if P2C.Invert() != C2P || C2P.Invert() != P2C || P2P.Invert() != P2P || None.Invert() != None {
		t.Error("Invert wrong")
	}
	if Relationship(9).String() == "" {
		t.Error("unknown relationship should still render")
	}
	for _, r := range []Relationship{None, P2C, C2P, P2P} {
		text, _ := r.MarshalText()
		var back Relationship
		if err := back.UnmarshalText(text); err != nil || back != r || string(text) != r.String() {
			t.Errorf("%v: text %q parses back to %v (%v)", r, text, back, err)
		}
	}
	var r Relationship
	if err := r.UnmarshalText([]byte("sideways")); err == nil {
		t.Error("an unknown name should not parse")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassTier1: "tier1", ClassTransit: "transit", ClassStub: "stub", ClassContent: "content",
	} {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestAddErrors(t *testing.T) {
	topo := tiny(t)
	if err := topo.AddP2C(1, 3); err == nil {
		t.Error("duplicate link should fail")
	}
	if err := topo.AddP2P(3, 4); err == nil {
		t.Error("duplicate peering should fail")
	}
	if err := topo.AddP2C(1, 1); err == nil {
		t.Error("self link should fail")
	}
	if err := topo.AddP2C(1, 99); err == nil {
		t.Error("unknown AS should fail")
	}
	if err := topo.AddP2P(99, 1); err == nil {
		t.Error("unknown AS should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddAS should panic")
		}
	}()
	topo.AddAS(&AS{ASN: 1})
}

func TestRemoveLink(t *testing.T) {
	topo := tiny(t)
	for _, c := range []struct {
		x, y uint32
		was  Relationship
	}{
		{1, 3, P2C}, // provider first
		{5, 4, C2P}, // customer first
		{3, 4, P2P},
		{1, 5, None}, // absent: a no-op
	} {
		if got := topo.Rel(c.x, c.y); got != c.was {
			t.Fatalf("before removeLink(%d, %d): rel %v, want %v", c.x, c.y, got, c.was)
		}
		links := topo.NumLinks()
		topo.removeLink(c.x, c.y)
		if topo.Rel(c.x, c.y) != None || topo.HasLink(c.x, c.y) {
			t.Errorf("removeLink(%d, %d): link still there", c.x, c.y)
		}
		want := links - 1
		if c.was == None {
			want = links
		}
		if topo.NumLinks() != want {
			t.Errorf("removeLink(%d, %d): %d links, want %d", c.x, c.y, topo.NumLinks(), want)
		}
		for _, pair := range [][2]uint32{{c.x, c.y}, {c.y, c.x}} {
			a := topo.AS(pair[0])
			for _, list := range [][]uint32{a.Providers, a.Customers, a.Peers} {
				if slices.Contains(list, pair[1]) {
					t.Errorf("removeLink(%d, %d): AS %d still lists %d", c.x, c.y, pair[0], pair[1])
				}
			}
		}
		if err := topo.Validate(); err != nil {
			t.Errorf("removeLink(%d, %d): %v", c.x, c.y, err)
		}
	}
	if topo.NumLinks() != 4 {
		t.Errorf("%d links left of 7, want 4", topo.NumLinks())
	}
}

func TestTrueCone(t *testing.T) {
	topo := tiny(t)
	cone1 := topo.TrueCone(1)
	for _, asn := range []uint32{1, 3, 4, 5} {
		if !cone1[asn] {
			t.Errorf("cone(1) missing %d", asn)
		}
	}
	if cone1[2] {
		t.Error("peer 2 should not be in cone(1)")
	}
	cone5 := topo.TrueCone(5)
	if len(cone5) != 1 || !cone5[5] {
		t.Errorf("stub cone = %v", cone5)
	}
	if len(topo.TrueCone(99)) != 0 {
		t.Error("unknown AS cone should be empty")
	}
}

func TestValidateAcceptsTiny(t *testing.T) {
	if err := tiny(t).Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	topo := New()
	topo.AddAS(&AS{ASN: 1})
	topo.AddAS(&AS{ASN: 2})
	topo.AddAS(&AS{ASN: 3})
	mustLink(topo.AddP2C(1, 2))
	mustLink(topo.AddP2C(2, 3))
	mustLink(topo.AddP2C(3, 1))
	if err := topo.Validate(); err == nil {
		t.Error("p2c cycle should fail validation")
	}
}

func TestValidateRejectsBrokenClique(t *testing.T) {
	topo := New()
	topo.AddAS(&AS{ASN: 1, Class: ClassTier1})
	topo.AddAS(&AS{ASN: 2, Class: ClassTier1})
	// no peering between them
	if err := topo.Validate(); err == nil {
		t.Error("unpeered clique should fail validation")
	}
	topo2 := New()
	topo2.AddAS(&AS{ASN: 1, Class: ClassTier1})
	topo2.AddAS(&AS{ASN: 2, Class: ClassTier1})
	topo2.AddAS(&AS{ASN: 3, Class: ClassTransit})
	mustLink(topo2.AddP2P(1, 2))
	mustLink(topo2.AddP2C(3, 1)) // tier-1 with a provider
	if err := topo2.Validate(); err == nil {
		t.Error("tier-1 with provider should fail validation")
	}
}

func TestStats(t *testing.T) {
	topo := tiny(t)
	s := topo.Stats()
	if s.ASes != 5 || s.Links != 7 || s.P2PLinks != 2 || s.P2CLinks != 5 {
		t.Errorf("stats = %+v", s)
	}
	if s.Tier1s != 2 || s.Transit != 2 || s.Stubs != 1 {
		t.Errorf("class counts = %+v", s)
	}
}

func TestGenerateStructure(t *testing.T) {
	p := DefaultParams(42)
	p.ASes = 600
	topo := Generate(p)
	if err := topo.Validate(); err != nil {
		t.Fatalf("generated topology invalid: %v", err)
	}
	s := topo.Stats()
	if s.ASes != 600 {
		t.Errorf("ASes = %d", s.ASes)
	}
	if s.Tier1s != p.Tier1s {
		t.Errorf("Tier1s = %d, want %d", s.Tier1s, p.Tier1s)
	}
	if s.P2PLinks == 0 || s.P2CLinks == 0 {
		t.Error("expected both link types")
	}
	if s.Prefixes < s.ASes {
		t.Errorf("every AS should originate at least one prefix: %d < %d", s.Prefixes, s.ASes)
	}
	// Every non-tier1, non-providerless-content AS must have a provider
	// (global reachability).
	for _, asn := range topo.ASNs() {
		a := topo.AS(asn)
		if a.Class == ClassTier1 {
			continue
		}
		if len(a.Providers) == 0 {
			if a.Class != ClassContent {
				t.Errorf("AS %d (%v) has no providers", asn, a.Class)
			} else if len(a.Peers) == 0 {
				t.Errorf("provider-less content AS %d has no peers either", asn)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultParams(7)
	p.ASes = 300
	a, b := Generate(p), Generate(p)
	if a.NumASes() != b.NumASes() || a.NumLinks() != b.NumLinks() {
		t.Fatal("same seed produced different sizes")
	}
	la, lb := a.Links(), b.Links()
	for l, r := range la {
		if lb[l] != r {
			t.Fatalf("link %v differs: %v vs %v", l, r, lb[l])
		}
	}
	p2 := DefaultParams(8)
	p2.ASes = 300
	c := Generate(p2)
	diff := false
	lc := c.Links()
	if len(lc) != len(la) {
		diff = true
	} else {
		for l, r := range la {
			if lc[l] != r {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical topologies")
	}
}

func TestGeneratePrefixesUnique(t *testing.T) {
	p := DefaultParams(3)
	p.ASes = 300
	topo := Generate(p)
	seen := map[string]uint32{}
	for _, asn := range topo.ASNs() {
		for _, pfx := range topo.AS(asn).Prefixes {
			key := pfx.String()
			if prev, dup := seen[key]; dup {
				t.Fatalf("prefix %s originated by both %d and %d", key, prev, asn)
			}
			seen[key] = asn
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	topo := tiny(t)
	clone := topo.Clone()
	if err := clone.Validate(); err != nil {
		t.Fatal(err)
	}
	mustLink(clone.AddP2P(2, 3))
	if topo.Rel(2, 3) != None {
		t.Error("mutating clone affected original")
	}
	if clone.Rel(2, 3) != P2P {
		t.Error("clone mutation lost")
	}
}

func TestGenerateSeries(t *testing.T) {
	p := DefaultParams(11)
	p.ASes = 300
	e := DefaultEvolveParams()
	e.Snapshots = 5
	series := GenerateSeries(p, e)
	if len(series) != 5 {
		t.Fatalf("snapshots = %d", len(series))
	}
	prev := 0
	for i, topo := range series {
		if err := topo.Validate(); err != nil {
			t.Fatalf("snapshot %d invalid: %v", i, err)
		}
		if topo.NumASes() <= prev {
			t.Errorf("snapshot %d did not grow: %d ASes", i, topo.NumASes())
		}
		prev = topo.NumASes()
	}
	// Peering share should not shrink over time (flattening).
	first, last := series[0].Stats(), series[len(series)-1].Stats()
	fracFirst := float64(first.P2PLinks) / float64(first.Links)
	fracLast := float64(last.P2PLinks) / float64(last.Links)
	if fracLast < fracFirst*0.9 {
		t.Errorf("peering fraction shrank: %.3f -> %.3f", fracFirst, fracLast)
	}
	// AS identities stable: every snapshot-0 AS survives.
	for _, asn := range series[0].ASNs() {
		if series[len(series)-1].AS(asn) == nil {
			t.Fatalf("AS %d vanished across snapshots", asn)
		}
	}
}

func TestSeriesCliqueGrows(t *testing.T) {
	p := DefaultParams(13)
	p.ASes = 400
	e := DefaultEvolveParams()
	e.Snapshots = 8
	e.CliquePromotions = 3
	series := GenerateSeries(p, e)
	first := len(series[0].Tier1s())
	last := len(series[len(series)-1].Tier1s())
	if last <= first {
		t.Errorf("clique did not grow: %d -> %d", first, last)
	}
}

func TestTopologyCodecRoundTrip(t *testing.T) {
	p := DefaultParams(5)
	p.ASes = 200
	topo := Generate(p)
	var buf bytes.Buffer
	if err := topo.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.NumASes() != topo.NumASes() || got.NumLinks() != topo.NumLinks() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d",
			got.NumASes(), got.NumLinks(), topo.NumASes(), topo.NumLinks())
	}
	for l, r := range topo.Links() {
		if got.Rel(l.A, l.B) != r {
			t.Fatalf("link %v: %v != %v", l, got.Rel(l.A, l.B), r)
		}
	}
	for _, asn := range topo.ASNs() {
		a, b := topo.AS(asn), got.AS(asn)
		if a.Class != b.Class || a.Region != b.Region || len(a.Prefixes) != len(b.Prefixes) {
			t.Fatalf("AS %d metadata mismatch", asn)
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"X|1|2",                              // unknown record
		"A|x|stub|0",                         // bad ASN
		"A|1|alien|0",                        // bad class
		"A|1|stub|x",                         // bad region
		"A|1|stub|0\nA|1|stub|0",             // duplicate AS
		"P|1|192.0.2.0/24",                   // prefix before AS
		"A|1|stub|0\nP|1|nonsense",           // bad prefix
		"R|1|2|p2c",                          // link before AS
		"A|1|stub|0\nA|2|stub|0\nR|1|2|what", // bad relationship
		"A|1|stub|0",                         // valid base for following
	}
	for i, c := range cases[:len(cases)-1] {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d (%q) should fail", i, c)
		}
	}
	if _, err := Read(strings.NewReader(cases[len(cases)-1])); err != nil {
		t.Errorf("valid input failed: %v", err)
	}
}

// FuzzRead feeds arbitrary text to the topology reader. Whatever it
// accepts, Write renders in its canonical form: reading that back must
// succeed and write the same bytes again, with the same links.
func FuzzRead(f *testing.F) {
	p := DefaultParams(5)
	p.ASes = 30
	var gen bytes.Buffer
	if err := Generate(p).Write(&gen); err != nil {
		f.Fatal(err)
	}
	seed := "# toy\nA|1|tier1|0\nA|2|tier1|+1\nA|3|stub|-2\nP|3|192.0.2.0/24\nP|3|2001:db8::/32\n R|1|3|p2c \nR|2|1|p2p\nR|3|2|p2p\n"
	f.Add([]byte(seed))
	f.Add(gen.Bytes())
	for _, v := range chaos.CorruptVariants(20130401, []byte(seed), 8) {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := topo.Write(&once); err != nil {
			t.Fatal(err)
		}
		again, err := Read(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("accepted %q, but not what Write made of it, %q: %v", data, once.Bytes(), err)
		}
		if err := again.Write(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("accepted %q: Write gives %q, then %q after a Read", data, once.Bytes(), twice.Bytes())
		}
		if !reflect.DeepEqual(topo.Links(), again.Links()) {
			t.Fatalf("accepted %q: links %v, %v after Write and Read", data, topo.Links(), again.Links())
		}
	})
}

// TestGenerateSeriesPinned holds every snapshot of two default-evolution
// series to the bytes Write produced before the base generator and the
// series step shared one builder, and checks on each snapshot the
// invariant the builder relies on: creation order is ascending-ASN
// order.
func TestGenerateSeriesPinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		ases int
	}{{42, 300}, {7, 1500}} {
		p := DefaultParams(c.seed)
		p.ASes = c.ases
		key := fmt.Sprintf("seed%d/%d", c.seed, c.ases)
		var got []string
		for i, topo := range GenerateSeries(p, DefaultEvolveParams()) {
			if err := topo.Validate(); err != nil {
				t.Fatalf("%s snapshot %d: %v", key, i, err)
			}
			asns := topo.ASNs()
			for j := 1; j < len(asns); j++ {
				if asns[j] <= asns[j-1] {
					t.Fatalf("%s snapshot %d: ASN %d created after %d", key, i, asns[j], asns[j-1])
				}
			}
			h := sha256.New()
			if err := topo.Write(h); err != nil {
				t.Fatal(err)
			}
			got = append(got, hex.EncodeToString(h.Sum(nil))[:16])
		}
		if want := pinnedSeries[key]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: series moved\n got  %q\n want %q", key, got, want)
		}
	}
}

var pinnedSeries = map[string][]string{
	"seed42/300": {"d526edcd3ec1b39f", "227801ac12223906", "9b04cccb117b2cb4", "78cff58bbc6c005b", "80106f3c8b6367fa", "1c6f3845f3fd1a1c", "7af1acd9497be462", "887ed996fdca57a0", "3602cfcf7e70c24b", "6ea5a80be64ae005", "8fe57d4418f8f19e", "2c390e93a59ac16c", "d9e18aeba73e0490", "37d48619132eccc9", "fd1863172c96c5fa", "d636ecd93c3fafd2"},
	"seed7/1500": {"ab757153678a23d8", "87ac62ee80662cc4", "df825164588bf6de", "52a4a100e2290dd4", "a193d286d367bac3", "2cacc7af4ec6b9c9", "e0c9006fad4cc545", "2dd04ceb80cc058d", "2a76e416d0cbf13f", "7f458d91898fc840", "2bb59cdced735f1e", "26a557dc74b69cef", "d16052db3a71f851", "8ae167098b8a689c", "3356b440c690784c", "3f4a0d3f6ecc068c"},
}
