package rpsl

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/chaos"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

const sample = `aut-num:        AS64496
as-name:        EXAMPLE-NET
descr:          example network
                spanning two lines
import:         from AS3356 accept ANY
import:         from AS64497 action pref=100; accept AS64497
export:         to AS3356 announce AS64496
export:         to AS64497 announce AS64496
export:         to AS64511 announce ANY
mnt-by:         MAINT-EX
source:         TEST

# a comment between objects
route:          192.0.2.0/24
origin:         AS64496
`

func TestParseObjects(t *testing.T) {
	objs, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("parsed %d objects, want 2", len(objs))
	}
	if objs[0].Class() != "aut-num" || objs[1].Class() != "route" {
		t.Errorf("classes: %q, %q", objs[0].Class(), objs[1].Class())
	}
	descr, _ := objs[0].First("descr")
	if descr != "example network spanning two lines" {
		t.Errorf("continuation folding wrong: %q", descr)
	}
	if len(objs[0].All("import")) != 2 || len(objs[0].All("export")) != 3 {
		t.Errorf("attr counts wrong")
	}
	if _, ok := objs[0].First("missing"); ok {
		t.Error("First on missing attr should report false")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("   leading continuation\n")); err == nil {
		t.Error("continuation-first should fail")
	}
	if _, err := Parse(strings.NewReader("no colon line\n")); err == nil {
		t.Error("missing colon should fail")
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	objs, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, objs); err != nil {
		t.Fatal(err)
	}
	again, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(objs) {
		t.Fatalf("round trip object count %d != %d", len(again), len(objs))
	}
	for i := range objs {
		if len(again[i].Attrs) != len(objs[i].Attrs) {
			t.Errorf("object %d attr count differs", i)
		}
	}
}

func TestParseAutNum(t *testing.T) {
	objs, _ := Parse(strings.NewReader(sample))
	an, err := ParseAutNum(objs[0])
	if err != nil {
		t.Fatal(err)
	}
	if an.ASN != 64496 || an.Name != "EXAMPLE-NET" {
		t.Errorf("header: %+v", an)
	}
	if len(an.Imports) != 2 || len(an.Exports) != 3 {
		t.Fatalf("policies: %+v", an)
	}
	if an.Imports[0].Peer != 3356 || !an.Imports[0].AcceptsAny() {
		t.Errorf("import[0] = %+v", an.Imports[0])
	}
	if an.Imports[1].Peer != 64497 || an.Imports[1].Filter != "AS64497" {
		t.Errorf("import[1] = %+v", an.Imports[1])
	}
	if an.Exports[2].Peer != 64511 || !an.Exports[2].AcceptsAny() {
		t.Errorf("export[2] = %+v", an.Exports[2])
	}
	if _, err := ParseAutNum(objs[1]); err == nil {
		t.Error("non-aut-num should fail")
	}
}

func TestParsePolicyErrors(t *testing.T) {
	bad := []string{
		"from AS1",            // no accept
		"from accept ANY",     // missing peer... "accept" parsed as peer? should error on bad ASN
		"accept ANY",          // no from
		"from ASxyz accept A", // bad ASN
	}
	for _, line := range bad {
		if _, err := parsePolicy(line, "from", "accept"); err == nil {
			t.Errorf("policy %q should fail", line)
		}
	}
}

func TestRelationshipsFromPolicies(t *testing.T) {
	objs, _ := Parse(strings.NewReader(sample))
	an, _ := ParseAutNum(objs[0])
	rels := Relationships([]*AutNum{an})
	get := func(x, y uint32) topology.Relationship {
		r, ok := rels[paths.NewLink(x, y)]
		if !ok {
			return topology.None
		}
		if paths.NewLink(x, y).A == x {
			return r
		}
		return r.Invert()
	}
	// AS64496 imports ANY from 3356: 3356 is its provider.
	if get(3356, 64496) != topology.P2C {
		t.Errorf("Rel(3356,64496) = %v", get(3356, 64496))
	}
	// Mutual specific policies with 64497: peering.
	if get(64496, 64497) != topology.P2P {
		t.Errorf("Rel(64496,64497) = %v", get(64496, 64497))
	}
	// Exports ANY to 64511: customer.
	if get(64496, 64511) != topology.P2C {
		t.Errorf("Rel(64496,64511) = %v", get(64496, 64511))
	}
}

func TestRelationshipsConflictDropped(t *testing.T) {
	// Two aut-nums disagree about the same link.
	a := &AutNum{ASN: 1, Imports: []Policy{{Peer: 2, Filter: "ANY"}}} // 2 provider of 1
	b := &AutNum{ASN: 2, Imports: []Policy{{Peer: 1, Filter: "ANY"}}} // 1 provider of 2
	if rels := Relationships([]*AutNum{a, b}); len(rels) != 0 {
		t.Errorf("conflicting views should drop the link, got %v", rels)
	}
	// Agreement keeps it.
	c := &AutNum{ASN: 2, Exports: []Policy{{Peer: 1, Filter: "ANY"}}} // 1 is 2's customer
	if rels := Relationships([]*AutNum{a, c}); len(rels) != 1 {
		t.Errorf("agreeing views should keep the link, got %v", rels)
	}
}

func TestGenerateAndExtract(t *testing.T) {
	p := topology.DefaultParams(9)
	p.ASes = 300
	topo := topology.Generate(p)
	objs := Generate(topo, GenerateOptions{Seed: 9, RegisterFrac: 0.5})
	if len(objs) == 0 {
		t.Fatal("no objects generated")
	}
	// Round-trip through the text form.
	var buf bytes.Buffer
	if err := Write(&buf, objs); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := AutNums(parsed)
	if err != nil {
		t.Fatal(err)
	}
	rels := Relationships(ans)
	if len(rels) == 0 {
		t.Fatal("no relationships extracted")
	}
	// Without stale entries, every extracted relationship must match
	// ground truth.
	truth := topo.Links()
	for l, r := range rels {
		want, ok := truth[l]
		if !ok {
			t.Fatalf("extracted link %v not in topology", l)
		}
		if r != want {
			t.Fatalf("link %v: extracted %v, truth %v", l, r, want)
		}
	}
}

func TestGenerateStaleEntries(t *testing.T) {
	p := topology.DefaultParams(10)
	p.ASes = 300
	topo := topology.Generate(p)
	objs := Generate(topo, GenerateOptions{Seed: 10, RegisterFrac: 1, StaleFrac: 0.5})
	ans, err := AutNums(objs)
	if err != nil {
		t.Fatal(err)
	}
	rels := Relationships(ans)
	truth := topo.Links()
	stale := 0
	for l := range rels {
		if _, ok := truth[l]; !ok {
			stale++
		}
	}
	if stale == 0 {
		t.Error("expected some stale relationships outside the topology")
	}
}

// FuzzParse feeds arbitrary text to the RPSL parser. Whatever objects it
// accepts must survive Write and a second Parse unchanged. Inputs are
// capped well below the parser's 1 MiB line limit: continuation lines
// fold into one written line, so a longer input could write a line the
// parser refuses.
func FuzzParse(f *testing.F) {
	f.Add([]byte(sample))
	f.Add([]byte("a:\n+b\n\tc # note\n\nX : Y:Z\n\n\n:\n"))
	for _, v := range chaos.CorruptVariants(20130401, []byte(sample), 8) {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return
		}
		objs, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, objs); err != nil {
			t.Fatal(err)
		}
		again, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil || !reflect.DeepEqual(objs, again) {
			t.Fatalf("accepted %q, wrote it as %q, which parses to other objects (%v)", data, buf.Bytes(), err)
		}
	})
}
