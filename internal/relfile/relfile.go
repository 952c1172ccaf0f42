// Package relfile reads and writes AS-relationship files in the
// CAIDA serial-1 convention: one link per line,
//
//	<AS1>|<AS2>|-1    AS1 is a provider of AS2
//	<AS1>|<AS2>|0     AS1 and AS2 are peers
//
// with '#' comment lines for metadata (the clique, counts).
package relfile

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// Write renders rels (canonical orientation) with optional comment
// lines first.
func Write(w io.Writer, rels map[paths.Link]topology.Relationship, comments ...string) error {
	bw := bufio.NewWriter(w)
	for _, c := range comments {
		fmt.Fprintf(bw, "# %s\n", c)
	}
	for _, l := range paths.SortedLinks(asCounts(rels)) {
		switch rels[l] {
		case topology.P2C:
			fmt.Fprintf(bw, "%d|%d|-1\n", l.A, l.B)
		case topology.C2P:
			fmt.Fprintf(bw, "%d|%d|-1\n", l.B, l.A)
		case topology.P2P:
			fmt.Fprintf(bw, "%d|%d|0\n", l.A, l.B)
		}
	}
	return bw.Flush()
}

func asCounts(m map[paths.Link]topology.Relationship) map[paths.Link]int {
	out := make(map[paths.Link]int, len(m))
	for l := range m {
		out[l] = 1
	}
	return out
}

// Read parses a relationship file back into canonical orientation. A
// self link, or a second line for a link already given, is an error
// naming the lines: a concatenated or corrupt file must not flip a
// relationship without a word.
func Read(r io.Reader) (map[paths.Link]topology.Relationship, error) {
	out := make(map[paths.Link]topology.Relationship)
	first := make(map[paths.Link]int) // line each link was given on
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "|")
		if len(parts) != 3 {
			return nil, fmt.Errorf("relfile: line %d: want 3 fields, got %d", lineno, len(parts))
		}
		a, err := strconv.ParseUint(parts[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("relfile: line %d: bad ASN %q", lineno, parts[0])
		}
		b, err := strconv.ParseUint(parts[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("relfile: line %d: bad ASN %q", lineno, parts[1])
		}
		if a == b {
			return nil, fmt.Errorf("relfile: line %d: self link %d", lineno, a)
		}
		l := paths.NewLink(uint32(a), uint32(b))
		if prev, dup := first[l]; dup {
			return nil, fmt.Errorf("relfile: line %d: link %d-%d already given on line %d", lineno, l.A, l.B, prev)
		}
		first[l] = lineno
		switch parts[2] {
		case "-1":
			if l.A == uint32(a) {
				out[l] = topology.P2C
			} else {
				out[l] = topology.C2P
			}
		case "0":
			out[l] = topology.P2P
		default:
			return nil, fmt.Errorf("relfile: line %d: bad relationship code %q", lineno, parts[2])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
