package relfile

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/chaos"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

func TestRoundTrip(t *testing.T) {
	rels := map[paths.Link]topology.Relationship{
		paths.NewLink(1, 2): topology.P2C,
		paths.NewLink(3, 4): topology.C2P,
		paths.NewLink(5, 6): topology.P2P,
	}
	var buf bytes.Buffer
	if err := Write(&buf, rels, "clique: 1 2", "links: 3"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# clique: 1 2") {
		t.Error("comment missing")
	}
	if !strings.Contains(out, "1|2|-1") {
		t.Errorf("p2c line missing:\n%s", out)
	}
	if !strings.Contains(out, "4|3|-1") {
		t.Errorf("c2p orientation wrong:\n%s", out)
	}
	if !strings.Contains(out, "5|6|0") {
		t.Errorf("p2p line missing:\n%s", out)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rels) {
		t.Errorf("round trip:\ngot  %v\nwant %v", got, rels)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"1|2",      // too few fields
		"x|2|-1",   // bad ASN
		"1|y|-1",   // bad ASN
		"1|2|7",    // bad code
		"1|2|-1|z", // too many fields
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d (%q) should fail", i, c)
		}
	}
}

// FuzzRead feeds the relationship-file reader arbitrary bytes — it is
// the input surface of asvalidate and ascone -rels: it must not panic,
// and whatever it accepts must survive Write → Read unchanged.
func FuzzRead(f *testing.F) {
	seed := "# clique: 1 2\n1|2|-1\n4|3|-1\n5|6|0\n\n 7|7|0 \n4294967295|1|-1\n"
	f.Add([]byte(seed))
	f.Add([]byte("1|2|-1\n2|1|-1\n1|2|0"))
	for _, v := range chaos.CorruptVariants(20130401, []byte(seed), 8) {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rels, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, rels); err != nil {
			t.Fatal(err)
		}
		again, err := Read(&buf)
		if err != nil || !reflect.DeepEqual(rels, again) {
			t.Fatalf("accepted %q as %v, which round-trips to %v (%v)", data, rels, again, err)
		}
	})
}
