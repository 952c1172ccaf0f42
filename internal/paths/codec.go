package paths

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"github.com/asrank-go/asrank/internal/pool"
	"github.com/asrank-go/asrank/internal/trace"
)

// The text interchange format is one path per line:
//
//	collector|prefix|asn asn asn ...
//
// Lines starting with '#' and blank lines are ignored. The format is a
// cousin of the "|"-separated dumps BGP tooling commonly emits.

// Write renders the dataset in the text format. A row the format cannot
// carry — an empty AS path, or a collector name that holds '|', CR or
// LF, starts with '#', or begins or ends with white space, all of which
// Read would drop, trim or refuse — is an error naming the row; the
// rows before it are written whole and nothing of it is.
func Write(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	checked := make(map[string]error) // each distinct collector name's verdict
	for i, p := range ds.Paths {
		err, seen := checked[p.Collector]
		if !seen {
			err = checkCollector(p.Collector)
			checked[p.Collector] = err
		}
		if err == nil && len(p.ASNs) == 0 {
			err = errors.New("empty AS path")
		}
		if err != nil {
			// The row's error is the one to report; a failing writer would
			// only have lost rows the caller is about to discard anyway.
			_ = bw.Flush()
			return fmt.Errorf("paths: row %d: %w", i, err)
		}
		bw.WriteString(p.Collector)
		bw.WriteByte('|')
		if p.Prefix.IsValid() {
			bw.WriteString(p.Prefix.String())
		}
		bw.WriteByte('|')
		for k, a := range p.ASNs {
			if k > 0 {
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

// checkCollector reports why name cannot be a line's first field.
func checkCollector(name string) error {
	switch {
	case strings.ContainsAny(name, "|\r\n"):
		return fmt.Errorf("collector %q contains '|' or a line end", name)
	case strings.HasPrefix(name, "#"):
		return fmt.Errorf("collector %q starts a comment line", name)
	case strings.TrimSpace(name) != name:
		return fmt.Errorf("collector %q begins or ends with white space", name)
	}
	return nil
}

const (
	// maxLine is the line length Read refuses at: the limit of the
	// bufio.Scanner it once read through, whose error it still returns.
	maxLine = 1 << 20
	// readBlockSize is how much input one parse task gets: a block's
	// buffer and tables are sized by it and held once per worker, so
	// it is kept small beside the corpus (at 1 MiB a two-worker read of
	// a 10 MB file allocated more than the row-table copy this design
	// removes), yet thousands of rows, so a wave's fan-out is noise.
	readBlockSize = 256 << 10
)

// Read parses the text format. Each block of lines parses each
// distinct AS-path text once, and its rows with that text share one
// ASNs slice; rows from the same collector share one Collector string,
// and no row pins the line it was read from. The dataset keeps that
// grouping of its rows, one group per block and text, for Sanitize and
// GroupByHopsFeed to work per group while it still describes the rows
// (see Dataset).
func Read(r io.Reader) (*Dataset, error) {
	return ReadCtx(context.Background(), r)
}

// ReadCtx is Read with a context for tracing: when ctx carries a span,
// the read records a "paths.read" span with its row, group and block
// counts as attributes.
func ReadCtx(ctx context.Context, r io.Reader) (*Dataset, error) {
	_, ph := trace.StartPhase(ctx, "paths.read")
	rd := newReader(r, readBlockSize)
	ds, err := rd.read()
	if err == nil {
		ph.Span.SetAttrInt("rows", int64(len(ds.Paths)))
		ph.Span.SetAttrInt("groups", int64(rd.groups))
		ph.Span.SetAttrInt("blocks", int64(len(rd.parsed)))
		readRows.Add(uint64(len(ds.Paths)))
	}
	ph.End(readDuration, nil)
	return ds, err
}

// reader parses the text format a block of whole lines at a time, a
// wave of blocks in parallel, each block interning collector names and
// AS-path texts in tables of its own. A block's distinct texts — a
// third of its rows — are its groups, numbered across blocks in file
// order; when the input ends the blocks' collector names are shared and
// the rows and their groups are written, again in parallel, into a
// dataset allocated at its size. The block buffers and intern tables
// belong to the wave's slots and are reused by the next wave.
type reader struct {
	src       io.Reader
	blockSize int
	srcErr    error  // what ended the input: io.EOF, or a read error
	carry     []byte // read past the last block's end: the next block's start

	wave   []block
	parsed []parsedBlock
	lines  int // in parsed
	groups int // in parsed: their distinct texts
}

func newReader(src io.Reader, blockSize int) *reader {
	return &reader{src: src, blockSize: blockSize, wave: make([]block, pool.Resolve(0))}
}

func (rd *reader) read() (*Dataset, error) {
	for rd.srcErr == nil {
		wave := rd.wave[:0]
		for len(wave) < cap(wave) && rd.srcErr == nil {
			b := &rd.wave[len(wave)]
			if b.buf = rd.fill(b.buf); len(b.buf) > 0 {
				wave = wave[:len(wave)+1]
			}
		}
		pool.Chunks(0, len(wave), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				wave[i].parse()
			}
		})
		// The first error in file order is the first of the first wave
		// that has one: every earlier wave was clean.
		for i := range wave {
			b := &wave[i]
			if b.err != nil {
				return nil, fmt.Errorf("paths: line %d: %w", rd.lines+b.lines, b.err)
			}
			rd.lines += b.lines
			rd.groups += len(b.out.texts)
			rd.parsed = append(rd.parsed, b.out)
		}
	}
	if rd.srcErr != io.EOF {
		return nil, fmt.Errorf("paths: line %d: %w", rd.lines+1, rd.srcErr)
	}
	rd.shareNames()
	return rd.dataset(), nil
}

// fill reads the next block into buf: every whole line of the next
// blockSize bytes — more when they hold no line end — or, at the end of
// the input, whatever is left.
func (rd *reader) fill(buf []byte) []byte {
	buf = append(buf[:0], rd.carry...)
	rd.carry = rd.carry[:0]
	for want, idle := rd.blockSize, 0; rd.srcErr == nil; {
		if len(buf) < want {
			buf = slices.Grow(buf, want-len(buf))
			n, err := rd.src.Read(buf[len(buf):want])
			if n > 0 {
				idle = 0
			} else if idle++; idle == 100 && err == nil {
				err = io.ErrNoProgress // as the bufio.Scanner this replaced
			}
			buf, rd.srcErr = buf[:len(buf)+n], err
			continue
		}
		if end := bytes.LastIndexByte(buf, '\n') + 1; end > 0 {
			rd.carry = append(rd.carry, buf[end:]...)
			return buf[:end]
		}
		if len(buf) >= maxLine {
			// No line end this far in: parse refuses the line, and
			// nothing after the first error matters.
			rd.srcErr = io.EOF
			break
		}
		want = 2 * len(buf)
	}
	return buf
}

// block is one slot of a wave: a buffer of whole lines, the tables its
// parse interns through, and what the parse leaves for the dataset.
//
// An AS-path text is found by a seeded hash of its bytes: textIDs maps
// a hash to the newest text with it, each text chains to the older
// ones, and a text matches only when its bytes equal the probe's. A
// text's bytes are the buffer's own, alive while the block parses, so
// interning a text copies nothing of it.
type block struct {
	buf        []byte
	seed       maphash.Seed
	textIDs    map[uint64]uint32 // hash of an AS-path text → its newest index in texts
	texts      []text
	collectors map[string]uint32 // collector name → index in names
	names      []string

	lines int   // lines parsed, the one err is about included
	err   error // the block's first error, without its line number
	out   parsedBlock
}

// text is one distinct AS-path text of a block while it parses: its
// bytes in the block's buffer, the next older text with its hash, and
// the hops it parsed to.
type text struct {
	key  []byte
	next uint32 // noText at the oldest text of its hash
	hops []uint32
}

// noText ends a chain of texts with one hash.
const noText = math.MaxUint32

// parsedBlock is a block's rows and the tables their ids index, copied
// out of the slot at their size.
type parsedBlock struct {
	rows   []row
	texts  [][]uint32     // by text: the hops it parsed to
	names  []string       // by collector id
	others []netip.Prefix // the prefixes parsePrefix4 left to netip.ParsePrefix
}

// row is a parsed line: ids index its block's tables. Its prefix is
// packed: a canonical IPv4 prefix as parsePrefix4 packs it, or
// otherPrefix | i for the block's others[i] — any other spelling, IPv6
// and the empty field included. Sixteen bytes a row, where a
// netip.Prefix alone is thirty-two.
type row struct {
	prefix    uint64
	collector uint32
	text      uint32
}

// otherPrefix tags a row's prefix as an index into its block's others;
// a packed IPv4 prefix uses the low 40 bits only.
const otherPrefix = 1 << 63

func (b *block) parse() {
	// Every line could be a row and every row a new text, so tables of
	// that many entries are sized once; a slot's later blocks reuse them.
	n := bytes.Count(b.buf, []byte{'\n'}) + 1
	if b.textIDs == nil {
		b.seed = maphash.MakeSeed()
		b.textIDs, b.collectors = make(map[uint64]uint32, n), make(map[string]uint32)
	}
	clear(b.textIDs)
	clear(b.collectors)
	b.texts, b.names = slices.Grow(b.texts[:0], n), b.names[:0]
	b.lines, b.err = 0, nil
	b.out = parsedBlock{rows: make([]row, 0, n)}
	for rest := b.buf; len(rest) > 0 && b.err == nil; {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		b.lines++
		if len(line) >= maxLine {
			b.err = bufio.ErrTooLong
			break
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var r row
		if r, b.err = b.parseLine(line); b.err == nil {
			b.out.rows = append(b.out.rows, r)
		}
	}
	b.out.texts = make([][]uint32, len(b.texts))
	for i, t := range b.texts {
		b.out.texts[i] = t.hops
	}
	b.out.names = slices.Clone(b.names)
}

func (b *block) parseLine(line []byte) (row, error) {
	if n := bytes.Count(line, []byte{'|'}); n != 2 {
		return row{}, fmt.Errorf("want 3 |-separated fields, got %d", n+1)
	}
	i, j := bytes.IndexByte(line, '|'), bytes.LastIndexByte(line, '|')
	var r row
	var ok bool
	if r.collector, ok = b.collectors[string(line[:i])]; !ok {
		r.collector = uint32(len(b.names))
		b.names = append(b.names, string(line[:i]))
		b.collectors[b.names[r.collector]] = r.collector
	}
	if r.prefix, ok = parsePrefix4(line[i+1 : j]); !ok {
		var p netip.Prefix
		if i+1 < j {
			var err error
			if p, err = netip.ParsePrefix(string(line[i+1 : j])); err != nil {
				return row{}, err
			}
		}
		r.prefix = otherPrefix | uint64(len(b.out.others))
		b.out.others = append(b.out.others, p)
	}
	key := line[j+1:]
	h := maphash.Bytes(b.seed, key)
	head, seen := b.textIDs[h]
	if !seen {
		head = noText
	}
	for id := head; id != noText; id = b.texts[id].next {
		if bytes.Equal(b.texts[id].key, key) {
			r.text = id
			return r, nil
		}
	}
	hops, err := parseHops(key)
	if err != nil {
		return row{}, err
	}
	r.text = uint32(len(b.texts))
	b.texts = append(b.texts, text{key: key, next: head, hops: hops})
	b.textIDs[h] = r.text
	return r, nil
}

// shareNames makes equal collector names of different blocks one
// string: the first block's in file order.
func (rd *reader) shareNames() {
	collectors := make(map[string]string)
	for _, pb := range rd.parsed {
		for i, name := range pb.names {
			if shared, ok := collectors[name]; ok {
				pb.names[i] = shared
			} else {
				collectors[name] = name
			}
		}
	}
}

// dataset writes the parsed blocks' rows into one slice of their size,
// beside each row's group — its block's first group plus its text —
// and the blocks' texts into one table of groups; Paths is nil when
// there are none, as in the dataset no row was added to.
func (rd *reader) dataset() *Dataset {
	starts := make([]int, len(rd.parsed)+1)
	bases := make([]int32, len(rd.parsed))
	hops := make([][]uint32, 0, rd.groups)
	for i, pb := range rd.parsed {
		starts[i+1] = starts[i] + len(pb.rows)
		bases[i] = int32(len(hops))
		hops = append(hops, pb.texts...)
	}
	total := starts[len(rd.parsed)]
	if total == 0 {
		return &Dataset{}
	}
	out, of := make([]Path, total), make([]int32, total)
	pool.Chunks(0, len(rd.parsed), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			pb := &rd.parsed[k]
			dst, dstOf := out[starts[k]:starts[k+1]], of[starts[k]:starts[k+1]]
			for i, r := range pb.rows {
				p := Path{Collector: pb.names[r.collector], ASNs: pb.texts[r.text]}
				if r.prefix&otherPrefix != 0 {
					p.Prefix = pb.others[r.prefix&^otherPrefix]
				} else {
					p.Prefix = prefix4(r.prefix)
				}
				dst[i], dstOf[i] = p, bases[k]+int32(r.text)
			}
		}
	})
	return &Dataset{Paths: out, groups: &Groups{Of: of, Hops: hops}}
}

// parsePrefix4 parses the one spelling of an IPv4 prefix a RIB dump
// writes — dotted quad, no leading zeros, a length of at most 32 — from
// the line's bytes, with no string made of them, and packs it as the
// address above the length: address<<8 | length. It reports false for
// any other text, which netip.ParsePrefix then parses or words the
// error for; what it accepts, ParsePrefix parses to prefix4 of it.
func parsePrefix4(text []byte) (uint64, bool) {
	var addr uint64
	for k := range 4 {
		v, n := parseDecimal(text, 255)
		if n == 0 || n == len(text) || text[n] != ".../"[k] {
			return 0, false
		}
		addr, text = addr<<8|uint64(v), text[n+1:]
	}
	bits, n := parseDecimal(text, 32)
	if n == 0 || n != len(text) {
		return 0, false
	}
	return addr<<8 | uint64(bits), true
}

// prefix4 unpacks a prefix parsePrefix4 packed.
func prefix4(packed uint64) netip.Prefix {
	a := uint32(packed >> 8)
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}), int(packed&0xff))
}

// parseDecimal reads the decimal number text starts with, if it is
// written without leading zeros and is at most limit (below 1000), and
// returns it and its length in bytes; the length is 0 when it is not.
func parseDecimal(text []byte, limit uint32) (uint32, int) {
	var v uint32
	n := 0
	for ; n < len(text) && n < 3 && '0' <= text[n] && text[n] <= '9'; n++ {
		v = 10*v + uint32(text[n]-'0')
	}
	if n == 0 || n > 1 && text[0] == '0' || v > limit || n < len(text) && '0' <= text[n] && text[n] <= '9' {
		return 0, 0
	}
	return v, n
}

// parseHops parses a white-space-separated AS path, cutting fields
// where strings.Fields would. A path of ASCII digits and ASCII white
// space is read in one pass over its bytes; any other — and every
// malformed one — goes through the general parser, which words the
// error.
func parseHops(text []byte) ([]uint32, error) {
	if asns, ok := parseHopsASCII(text); ok {
		return asns, nil
	}
	return parseHopsSlow(text)
}

// parseHopsASCII is parseHops for a text of ASCII digits and ASCII
// white space holding at least one ASN, each at most math.MaxUint32. It
// reports false for any other text.
func parseHopsASCII(text []byte) ([]uint32, bool) {
	asns := make([]uint32, 0, bytes.Count(text, []byte{' '})+1)
	var v uint64
	in := false // inside a field
	for _, c := range text {
		switch {
		case '0' <= c && c <= '9':
			if v = 10*v + uint64(c-'0'); v > math.MaxUint32 {
				return nil, false
			}
			in = true
		case c == ' ' || '\t' <= c && c <= '\r': // where strings.Fields cuts below utf8.RuneSelf
			if in {
				asns, v, in = append(asns, uint32(v)), 0, false
			}
		default:
			return nil, false
		}
	}
	if in {
		asns = append(asns, uint32(v))
	}
	return asns, len(asns) > 0
}

// parseHopsSlow is the general parser: fields cut at unicode.IsSpace,
// each parsed by strconv.ParseUint.
func parseHopsSlow(text []byte) ([]uint32, error) {
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
