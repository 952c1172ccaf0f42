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
	cases := map[string]string{
		"1|2":                   "line 1: want 3 fields",
		"x|2|-1":                "line 1: bad ASN",
		"1|y|-1":                "line 1: bad ASN",
		"1|2|7":                 "line 1: bad relationship code",
		"1|2|-1|z":              "line 1: want 3 fields",
		"# c\n7|7|0":            "line 2: self link 7",
		"1|2|-1\n# c\n\n2|1|-1": "line 4: link 1-2 already given on line 1", // the provider flipped
		"3|4|0\n1|2|-1\n1|2|-1": "line 3: link 1-2 already given on line 2", // even agreeing
	}
	for c, want := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Read(%q) = %v, want an error containing %q", c, err, want)
		}
	}
}

// FuzzRead feeds the relationship-file reader arbitrary bytes — it is
// the input surface of asvalidate and ascone -rels: it must not panic,
// whatever it accepts must hold one link per relationship line, and it
// must survive Write → Read unchanged.
func FuzzRead(f *testing.F) {
	seed := "# clique: 1 2\n1|2|-1\n4|3|-1\n5|6|0\n\n 7|7|0 \n4294967295|1|-1\n"
	f.Add([]byte(seed))
	f.Add([]byte("1|2|-1\n2|1|-1\n1|2|0"))
	for _, v := range chaos.CorruptVariants(20130401, []byte(seed), 8) {
		f.Add(v)
	}
	f.Add([]byte(strings.Replace(seed, " 7|7|0 ", " 7|8|0 ", 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		rels, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		lines := 0
		for _, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
				lines++
			}
		}
		if lines != len(rels) {
			t.Fatalf("accepted %q: %d relationship lines read as %d links", data, lines, len(rels))
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
