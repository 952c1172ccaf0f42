package paths

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strconv"
	"unicode"
)

// The text interchange format is one path per line:
//
//	collector|prefix|asn asn asn ...
//
// Lines starting with '#' and blank lines are ignored. The format is a
// cousin of the "|"-separated dumps BGP tooling commonly emits.

// Write renders the dataset in the text format.
func Write(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	for _, p := range ds.Paths {
		bw.WriteString(p.Collector)
		bw.WriteByte('|')
		if p.Prefix.IsValid() {
			bw.WriteString(p.Prefix.String())
		}
		bw.WriteByte('|')
		for i, a := range p.ASNs {
			if i > 0 {
				bw.WriteByte(' ')
			}
			bw.WriteString(strconv.FormatUint(uint64(a), 10))
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readBlock is how many rows Read collects per block before starting
// another: blocks are concatenated once at the end, so a corpus of any
// size is copied once instead of being re-grown 1.25x at a time.
const readBlock = 8192

// Read parses the text format. Rows that carry the same AS-path text
// share one ASNs slice and rows from the same collector share one
// Collector string: a RIB is a few paths repeated across many prefixes,
// so each distinct path is parsed and allocated once, and no row pins
// the line it was read from.
func Read(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var (
		blocks     [][]Path
		cur        []Path
		collectors = make(map[string]string)
		hops       = make(map[string][]uint32)
		lineno     int
	)
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if n := bytes.Count(line, []byte{'|'}); n != 2 {
			return nil, fmt.Errorf("paths: line %d: want 3 |-separated fields, got %d", lineno, n+1)
		}
		i, j := bytes.IndexByte(line, '|'), bytes.LastIndexByte(line, '|')
		collector, ok := collectors[string(line[:i])]
		if !ok {
			collector = string(line[:i])
			collectors[collector] = collector
		}
		p := Path{Collector: collector}
		if i+1 < j {
			prefix, err := netip.ParsePrefix(string(line[i+1 : j]))
			if err != nil {
				return nil, fmt.Errorf("paths: line %d: %w", lineno, err)
			}
			p.Prefix = prefix
		}
		if p.ASNs, ok = hops[string(line[j+1:])]; !ok {
			var err error
			if p.ASNs, err = parseHops(line[j+1:]); err != nil {
				return nil, fmt.Errorf("paths: line %d: %w", lineno, err)
			}
			hops[string(line[j+1:])] = p.ASNs
		}
		if len(cur) == cap(cur) {
			blocks = append(blocks, cur)
			cur = make([]Path, 0, min(max(2*cap(cur), 64), readBlock))
		}
		cur = append(cur, p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("paths: line %d: %w", lineno+1, err)
	}
	return &Dataset{Paths: slices.Concat(append(blocks, cur)...)}, nil
}

// parseHops parses a white-space-separated AS path, cutting fields
// where strings.Fields would.
func parseHops(text []byte) ([]uint32, error) {
	asns := make([]uint32, 0, bytes.Count(text, []byte{' '})+1)
	for {
		text = bytes.TrimLeftFunc(text, unicode.IsSpace)
		if len(text) == 0 {
			break
		}
		end := bytes.IndexFunc(text, unicode.IsSpace)
		if end < 0 {
			end = len(text)
		}
		v, err := strconv.ParseUint(string(text[:end]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad ASN %q", text[:end])
		}
		asns = append(asns, uint32(v))
		text = text[end:]
	}
	if len(asns) == 0 {
		return nil, errors.New("empty AS path")
	}
	return asns, nil
}
