package paths

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"

	"github.com/asrank-go/asrank/internal/asn"
	"github.com/asrank-go/asrank/internal/chaos"
)

// The reader and the sanitizer fold each distinct AS path once. These
// are the per-row implementations they replaced, kept as the oracles
// the replacements are diffed against.

// oracleRead is the Split/Fields reader. It also returns each row's
// AS-path text.
func oracleRead(r io.Reader) (*Dataset, []string, error) {
	ds := &Dataset{}
	var texts []string
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
			return nil, nil, fmt.Errorf("paths: line %d: want 3 |-separated fields, got %d", lineno, len(parts))
		}
		p := Path{Collector: parts[0]}
		if parts[1] != "" {
			prefix, err := netip.ParsePrefix(parts[1])
			if err != nil {
				return nil, nil, fmt.Errorf("paths: line %d: %w", lineno, err)
			}
			p.Prefix = prefix
		}
		for _, f := range strings.Fields(parts[2]) {
			v, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				return nil, nil, fmt.Errorf("paths: line %d: bad ASN %q", lineno, f)
			}
			p.ASNs = append(p.ASNs, uint32(v))
		}
		if len(p.ASNs) == 0 {
			return nil, nil, fmt.Errorf("paths: line %d: empty AS path", lineno)
		}
		ds.Add(p)
		texts = append(texts, parts[2])
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return ds, texts, nil
}

// oracleSanitize is the per-row sanitizer: a fresh slice and a loop set
// per path, one string key per row.
func oracleSanitize(ds *Dataset, opts SanitizeOptions) (*Dataset, SanitizeStats) {
	stats := SanitizeStats{Input: len(ds.Paths)}
	out := &Dataset{Paths: make([]Path, 0, len(ds.Paths))}
	seen := make(map[string]bool)
	for _, p := range ds.Paths {
		cleaned, info := oracleSanitizePath(p.ASNs, opts.IXPASes)
		switch info {
		case pathReserved:
			stats.ReservedDiscarded++
			continue
		case pathLoop:
			stats.LoopDiscarded++
			continue
		}
		if len(cleaned) < 2 {
			stats.TooShort++
			continue
		}
		np := Path{Collector: p.Collector, Prefix: p.Prefix, ASNs: cleaned}
		key := oracleDupKey(np)
		if seen[key] {
			stats.Duplicates++
			continue
		}
		seen[key] = true
		if info&pathPrepended != 0 {
			stats.PrependingRemoved++
		}
		if info&pathIXP != 0 {
			stats.IXPSpliced++
		}
		out.Add(np)
	}
	stats.Kept = len(out.Paths)
	return out, stats
}

func oracleSanitizePath(asns []uint32, ixp map[uint32]bool) ([]uint32, pathInfo) {
	var info pathInfo
	cleaned := make([]uint32, 0, len(asns))
	for _, a := range asns {
		if ixp[a] {
			info |= pathIXP
			continue
		}
		if asn.IsReserved(a) {
			return nil, pathReserved
		}
		if n := len(cleaned); n > 0 && cleaned[n-1] == a {
			info |= pathPrepended
			continue
		}
		cleaned = append(cleaned, a)
	}
	seen := make(map[uint32]bool, len(cleaned))
	for _, a := range cleaned {
		if seen[a] {
			return nil, pathLoop
		}
		seen[a] = true
	}
	return cleaned, info
}

func oracleDupKey(p Path) string {
	b := make([]byte, 0, len(p.Collector)+20+len(p.ASNs)*4)
	b = append(b, p.Collector...)
	b = append(b, 0)
	b = append(b, p.Prefix.String()...)
	b = append(b, 0)
	for _, a := range p.ASNs {
		b = append(b, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
	}
	return string(b)
}

// diffRead fails unless the reader, cutting its input into blocks of
// blockSize bytes, and the oracle agree on input: the same error text,
// or DeepEqual rows — and the reader's grouping describes the rows, one
// group per block and AS-path text, numbered in first-seen row order.
// Step 1 over the read rows must merge those groups into one group and
// one slice per path: the grouping of the oracle's rows.
func diffRead(t *testing.T, input []byte, blockSize int) {
	t.Helper()
	rd := newReader(bytes.NewReader(input), blockSize)
	got, gotErr := rd.read()
	want, texts, wantErr := oracleRead(bytes.NewReader(input))
	switch {
	case gotErr != nil && wantErr != nil:
		// A scanner failure is the one error Read words differently:
		// the oracle returned it bare.
		if gotErr.Error() != wantErr.Error() && !strings.HasSuffix(gotErr.Error(), ": "+wantErr.Error()) {
			t.Fatalf("block size %d, Read(%q): error %q, oracle %q", blockSize, input, gotErr, wantErr)
		}
	case gotErr != nil || wantErr != nil:
		t.Fatalf("block size %d, Read(%q): error %v, oracle %v", blockSize, input, gotErr, wantErr)
	case !reflect.DeepEqual(got.Paths, want.Paths):
		t.Fatalf("block size %d, Read(%q):\n got %+v\nwant %+v", blockSize, input, got.Paths, want.Paths)
	case len(got.Paths) > 0 && got.Groups() == nil:
		t.Fatalf("block size %d, Read(%q): the reader's grouping does not describe its rows", blockSize, input)
	case len(got.Paths) > 0:
		next := int32(0)
		for i, g := range got.groups.Of {
			if g > next {
				t.Fatalf("block size %d, Read(%q): row %d opens group %d before group %d", blockSize, input, i, g, next)
			}
			next = max(next, g+1)
		}
		if int(next) != len(got.groups.Hops) {
			t.Fatalf("block size %d, Read(%q): %d groups, rows in %d", blockSize, input, len(got.groups.Hops), next)
		}
		type blockText struct {
			block int
			text  string
		}
		groupOf := make(map[blockText]int32)
		i := 0
		for k, pb := range rd.parsed {
			for range pb.rows {
				key := blockText{k, texts[i]}
				g, seen := groupOf[key]
				if !seen {
					g = got.groups.Of[i]
					groupOf[key] = g
				}
				if got.groups.Of[i] != g {
					t.Fatalf("block size %d, Read(%q): row %d is in group %d, an earlier row of block %d with text %q in %d", blockSize, input, i, got.groups.Of[i], k, texts[i], g)
				}
				i++
			}
		}
		if len(groupOf) != len(got.groups.Hops) {
			t.Fatalf("block size %d, Read(%q): %d groups for %d block texts", blockSize, input, len(got.groups.Hops), len(groupOf))
		}
		merged := GroupByHopsFeed(got, nil)
		if want := GroupByHopsFeed(want, nil); !reflect.DeepEqual(merged, want) {
			t.Fatalf("block size %d, Read(%q): step 1 groups the read rows as %+v, the oracle's as %+v", blockSize, input, merged, want)
		}
		seen := make(map[string]int)
		for g, hops := range merged.Hops {
			if first, dup := seen[fmt.Sprint(hops)]; dup {
				t.Fatalf("block size %d, Read(%q): step 1's groups %d and %d hold the same path %v", blockSize, input, first, g, hops)
			}
			seen[fmt.Sprint(hops)] = g
		}
		diffSanitize(t, got, SanitizeOptions{}) // one slice a path, grouped as the oracle's rows
	}
}

// readBlockSizes cut a line into many blocks (1, 2, 7), a few lines
// into one (64, 4096), and everything the tests read into one.
var readBlockSizes = []int{1, 2, 7, 64, 4096, readBlockSize}

// readSeeds are inputs that reach every branch of the reader.
var readSeeds = []string{
	"",
	"# header\n\nc1|192.0.2.0/24|10 20 30\n",
	"c1|192.0.2.0/24|10 20 30\nc1|198.51.100.0/24|10 20 30\nc2||10 20 30\r\n",
	"c1|2001:db8::/32|1 2\n|::ffff:10.0.0.0/120|1 2\nc1|10.0.0.1/24| 1\t2  3 \n",
	"c1|192.0.2.0/24|10 20 30\n c1|192.0.2.0/24|7 8\n",
	"c1|192.0.2.0/24",
	"c1|not-a-prefix|10 20",
	"c1| 192.0.2.0/24|10 20",
	"c1|192.0.2.0/24|10 x 30",
	"c1|192.0.2.0/24|10 +3",
	"c1|192.0.2.0/24|99999999999",
	"c1|192.0.2.0/24|4294967295 4294967296",
	"c1|192.0.2.0/24|",
	"c1|192.0.2.0/24| \t ",
	"c1|192.0.2.0/24|10 20|extra",
	"ok|192.0.2.0/24|1 2\nc1|192.0.2.0/24|1 \xff 2\n",
	// Both sides of the IPv4 prefix fast path: what it parses, and
	// what it leaves to netip.ParsePrefix to parse or refuse.
	"c1|0.0.0.0/0|1 2\nc1|255.255.255.255/32|1 2\nc1|10.0.0.0/8|1 2\nc1|1.20.255.0/24|1 2\n",
	"c1|010.0.0.0/8|1 2",
	"c1|10.0.0.0/08|1 2",
	"c1|10.0.0.0/33|1 2",
	"c1|10.0.0.0/100|1 2",
	"c1|256.0.0.0/8|1 2",
	"c1|1000.0.0.0/8|1 2",
	"c1|1.2.3.4|1 2",
	"c1|1.2.3.4/|1 2",
	"c1|1.2.3.4.5/8|1 2",
	"c1|1.2.3/8|1 2",
	"c1|1..3.4/8|1 2",
	"c1|1.2.3.4/24x|1 2",
	"c1|1.2.3.4/+8|1 2",
	"c1|1.2.3.4/24 |1 2",
	// Both sides of the AS-path fast path: ASCII white space of every
	// kind, and white space and digits it leaves to the general parser.
	"c1|192.0.2.0/24|1\v2\f3\t4\r5\n",
	"c1|192.0.2.0/24|1\u00a02",
	"c1|192.0.2.0/24|1\u00852",
	"c1|192.0.2.0/24|1\xa02",
	"c1|192.0.2.0/24|1\u20002",
	"c1|192.0.2.0/24|0042 7",
	"c1|192.0.2.0/24|04294967295",
	"c1|192.0.2.0/24|4294967295 04294967296",
	"c1|192.0.2.0/24|1 \x002",
	// Spellings of one path: a group each, in a block and across
	// blocks, which step 1 merges.
	"c1|192.0.2.0/24|1 2\nc2|192.0.2.0/24|1  2\nc1|198.51.100.0/24|01 2\nc1|203.0.113.0/24|1\t2\n",
}

func TestReadMatchesOracle(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, randomCorpus(rand.New(rand.NewSource(1)), 5000)); err != nil {
		t.Fatal(err)
	}
	for _, size := range readBlockSizes {
		for _, in := range readSeeds {
			diffRead(t, []byte(in), size)
		}
		diffRead(t, buf.Bytes(), size)
		diffRead(t, ragged(buf.Bytes()), size)
	}
}

// ragged rewrites a rendered corpus into the shapes a block cut must
// not mind: a comment and a blank line after every fifth row (so every
// block of 4 KiB or less that holds five rows holds both), CRLF on every
// third, indented every seventh, and no line end after the last.
func ragged(file []byte) []byte {
	var out []byte
	for i, line := range bytes.SplitAfter(bytes.TrimSuffix(file, []byte("\n")), []byte("\n")) {
		if i%7 == 6 {
			out = append(out, " \t"...)
		}
		if i%3 == 2 {
			line = append(bytes.TrimSuffix(line, []byte("\n")), "\r\n"...)
		}
		out = append(out, line...)
		if i%5 == 4 {
			out = append(out, "# five more\n\n"...)
		}
	}
	return bytes.TrimRight(out, "\r\n")
}

// TestReadSharesAcrossBlocks: the interning contract holds however the
// input is cut. In Read's rows, rows of one block with one AS-path text
// share one slice, and rows of one collector one string though the
// first and the last sit blocks apart and every block interned them on
// its own. Step 1 merges the blocks' groups: over the read rows, one
// group a path and one slice a path, grouped as the written rows.
func TestReadSharesAcrossBlocks(t *testing.T) {
	ds := randomCorpus(rand.New(rand.NewSource(3)), 2000)
	ds.Add(ds.Paths[0]) // first seen in the first block, again in the last
	var buf bytes.Buffer
	if err := Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	want := GroupByHopsFeed(&Dataset{Paths: ds.Paths}, nil)
	for _, size := range readBlockSizes {
		rd := newReader(bytes.NewReader(buf.Bytes()), size)
		got, err := rd.read()
		if err != nil {
			t.Fatal(err)
		}
		if blocks := len(rd.parsed); size <= 4096 && blocks < 10 {
			t.Fatalf("block size %d: %d blocks, want the corpus cut into 10 or more", size, blocks)
		}
		names := map[string]*byte{}
		for i, p := range got.Paths {
			if first, ok := names[p.Collector]; !ok {
				names[p.Collector] = unsafe.StringData(p.Collector)
			} else if first != unsafe.StringData(p.Collector) {
				t.Fatalf("block size %d: row %d does not share the first %q string", size, i, p.Collector)
			}
		}
		// Write spells each path one way, so a block's texts are its paths.
		texts, i := 0, 0
		for _, pb := range rd.parsed {
			hops := map[string]*uint32{}
			for _, p := range got.Paths[i : i+len(pb.rows)] {
				text := fmt.Sprint(p.ASNs)
				if first, ok := hops[text]; !ok {
					hops[text] = unsafe.SliceData(p.ASNs)
				} else if first != unsafe.SliceData(p.ASNs) {
					t.Fatalf("block size %d: row %d does not share the hop slice of its block's first row with %s", size, i, text)
				}
				i++
			}
			texts += len(hops)
		}
		if rd.groups != texts || len(got.groups.Hops) != texts {
			t.Errorf("block size %d: reader counts %d groups and holds %d, its blocks %d distinct texts", size, rd.groups, len(got.groups.Hops), texts)
		}
		if merged := GroupByHopsFeed(got, nil); !reflect.DeepEqual(merged, want) {
			t.Fatalf("block size %d: step 1 groups the read rows as %+v, the written ones as %+v", size, merged, want)
		}
		diffSanitize(t, got, SanitizeOptions{}) // one slice a path, grouped by content
	}
}

// TestReadReportsFirstErrorInFileOrder: blocks are parsed side by side,
// and the later of two bad lines may well be found first. The error is
// the earlier line's, numbered from the top of the file, comments and
// blank lines counted.
func TestReadReportsFirstErrorInFileOrder(t *testing.T) {
	var in strings.Builder
	for i := 1; i <= 400; i++ {
		switch {
		case i == 150:
			in.WriteString("rv1|not-a-prefix|1 2\n")
		case i == 310:
			in.WriteString("rv1|10.0.0.0/8|1 x\n")
		case i%10 == 0:
			in.WriteString("# ten\n")
		default:
			fmt.Fprintf(&in, "rv1|10.0.%d.0/24|%d 2 3\n", i%256, 1+i%9)
		}
	}
	const want = `paths: line 150: netip.ParsePrefix("not-a-prefix"): no '/'`
	for _, size := range readBlockSizes {
		_, err := newReader(strings.NewReader(in.String()), size).read()
		if err == nil || err.Error() != want {
			t.Errorf("block size %d: error = %v, want %s", size, err, want)
		}
		diffRead(t, []byte(in.String()), size)
	}
}

// TestReadReturnsReaderError: a reader that fails ends the input where
// it fails — the bytes before it are lines like any other, a bad one
// among them is the earlier error — and one that stalls is given up on.
func TestReadReturnsReaderError(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct {
		text string
		end  io.Reader
		want string
		is   error
	}{
		{"c1||1 2\nc1||3 4", iotest.ErrReader(boom), "paths: line 3: boom", boom},
		{"c1||1 2\nc1||x", iotest.ErrReader(boom), `paths: line 2: bad ASN "x"`, nil},
		{"c1||1 2\n", stalled{}, "paths: line 2: " + io.ErrNoProgress.Error(), io.ErrNoProgress},
	} {
		for _, size := range readBlockSizes {
			_, err := newReader(io.MultiReader(strings.NewReader(c.text), c.end), size).read()
			if err == nil || err.Error() != c.want || c.is != nil && !errors.Is(err, c.is) {
				t.Errorf("block size %d, %q then %T: error = %v, want %s", size, c.text, c.end, err, c.want)
			}
		}
	}
}

// stalled is a reader that never has anything and never says so.
type stalled struct{}

func (stalled) Read([]byte) (int, error) { return 0, nil }

// TestReadLineLimit walks the one length at which a line stops being
// read: the scanner's buffer, which the block reader has no need of and
// keeps as the format's limit. A comment is a line like any other.
func TestReadLineLimit(t *testing.T) {
	for _, head := range []string{"c1|192.0.2.0/24|1 2", "# no row"} {
		for _, length := range []int{maxLine - 2, maxLine - 1, maxLine, maxLine + 1} {
			line := head + strings.Repeat(" ", length-len(head)-1) + "9"
			for _, tail := range []string{"", "\n", "\r\n", "\nc1||1 2\n"} {
				in := []byte("c0||3 4\n" + line + tail)
				for _, size := range []int{7, 4096, readBlockSize} {
					diffRead(t, in, size)
				}
			}
		}
	}
}

// FuzzRead diffs the block reader against the Split/Fields one on
// arbitrary bytes, cut into blocks of 1 to 256 bytes (the input's first
// byte says which) and read as one block.
func FuzzRead(f *testing.F) {
	for _, in := range readSeeds {
		f.Add([]byte(in))
	}
	var buf bytes.Buffer
	if err := Write(&buf, randomCorpus(rand.New(rand.NewSource(2)), 40)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// The breakage shapes every other decoder target seeds from.
	for _, v := range chaos.CorruptVariants(20130401, buf.Bytes(), 8) {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			diffRead(t, data, 1+int(data[0]))
		}
		diffRead(t, data, readBlockSize)
	})
}

// TestReadInternsCollectors pins the fix for the reader pinning every
// line: a row's Collector used to be a substring of the line's text.
// The read rows hold one hop slice per block and path, and step 1's
// rows one per path.
func TestReadInternsCollectors(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&in, "rv%d|10.%d.%d.0/24|%d 20 30\n", i%2, i>>8&255, i&255, 100+i%7)
	}
	rd := newReader(strings.NewReader(in.String()), readBlockSize)
	ds, err := rd.read()
	if err != nil {
		t.Fatal(err)
	}
	sanitized, _ := Sanitize(ds, SanitizeOptions{})
	for _, c := range []struct {
		name        string
		ds          *Dataset
		slicesAPath int
	}{{"read", ds, len(rd.parsed)}, {"sanitized", sanitized, 1}} {
		names := map[*byte]bool{}
		hops := map[*uint32]bool{}
		for _, p := range c.ds.Paths {
			names[unsafe.StringData(p.Collector)] = true
			hops[unsafe.SliceData(p.ASNs)] = true
		}
		if len(c.ds.Paths) != 10000 || len(names) != 2 || len(hops) != 7*c.slicesAPath {
			t.Errorf("%s: %d rows hold %d collector strings and %d hop slices, want 10000, 2 and %d", c.name, len(c.ds.Paths), len(names), len(hops), 7*c.slicesAPath)
		}
	}
}

func TestReadWrapsScannerError(t *testing.T) {
	in := "c1|192.0.2.0/24|1 2\nc1|192.0.2.0/24|" + strings.Repeat("7 ", 1<<20) + "\n"
	_, err := Read(strings.NewReader(in))
	if want := "paths: line 2: bufio.Scanner: token too long"; err == nil || err.Error() != want {
		t.Errorf("error = %v, want %q", err, want)
	}
}

// randomCorpus draws n rows that between them reach every branch of
// the sanitizer: few distinct hop sequences under many prefixes and
// several collectors, prepending, IXP splices (AS 555), loops, reserved
// ASNs, results too short to keep, exact duplicates, and prefixes that
// only a careful duplicate key keeps apart.
func randomCorpus(rng *rand.Rand, n int) *Dataset {
	prefixes := []netip.Prefix{
		{},
		netip.PrefixFrom(netip.MustParseAddr("10.0.0.0"), 99), // invalid, with an address
		netip.MustParsePrefix("10.0.0.0/24"),
		netip.MustParsePrefix("10.0.0.7/24"), // unmasked host bits
		netip.MustParsePrefix("::ffff:10.0.0.0/120"),
		netip.MustParsePrefix("::ffff:10.0.0.0/24"),
		netip.MustParsePrefix("2001:db8::/32"),
	}
	for i := 0; i < 6; i++ {
		prefixes = append(prefixes, netip.PrefixFrom(netip.AddrFrom4([4]byte{192, 0, byte(i), 0}), 24))
	}
	collectors := []string{"", "rv1", "rv2", "rv"}
	seqs := make([][]uint32, 1+n/4)
	for i := range seqs {
		var hops []uint32
		for len(hops) < 1+rng.Intn(5) {
			a := uint32(1 + rng.Intn(12))
			switch rng.Intn(20) {
			case 0:
				a = 555
			case 1:
				a = 64512
			case 2:
				hops = append(hops, a) // prepending
			case 3:
				if len(hops) > 1 {
					a = hops[0] // loop, unless prepending
				}
			}
			hops = append(hops, a)
		}
		seqs[i] = hops
	}
	ds := &Dataset{}
	for len(ds.Paths) < n {
		p := Path{
			Collector: collectors[rng.Intn(len(collectors))],
			Prefix:    prefixes[rng.Intn(len(prefixes))],
			ASNs:      seqs[rng.Intn(len(seqs))],
		}
		if rng.Intn(8) == 0 && len(ds.Paths) > 0 {
			p = ds.Paths[rng.Intn(len(ds.Paths))]
		}
		ds.Add(p)
	}
	return ds
}

func TestSanitizeMatchesOracle(t *testing.T) {
	var total SanitizeStats
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := randomCorpus(rng, 20+rng.Intn(300))
		var opts SanitizeOptions
		if seed%2 == 0 {
			opts.IXPASes = map[uint32]bool{555: true}
		}
		before := deepCopy(ds)
		copied, copiedStats := Sanitize(ds, opts)
		if !reflect.DeepEqual(ds, before) {
			t.Fatalf("seed %d: Sanitize changed its input", seed)
		}
		got, gotStats := diffSanitize(t, ds, opts)
		if copiedStats != gotStats || !reflect.DeepEqual(copied.Paths, got.Paths) {
			t.Fatalf("seed %d: Sanitize and SanitizeCtx clean the rows apart", seed)
		}
		groups := got.Groups()
		for i, p := range got.Paths {
			if unsafe.SliceData(p.ASNs) != unsafe.SliceData(groups.Hops[groups.Of[i]]) {
				t.Fatalf("seed %d: row %d does not share its group's hop slice", seed, i)
			}
		}
		total.PrependingRemoved += gotStats.PrependingRemoved
		total.IXPSpliced += gotStats.IXPSpliced
		total.ReservedDiscarded += gotStats.ReservedDiscarded
		total.LoopDiscarded += gotStats.LoopDiscarded
		total.TooShort += gotStats.TooShort
		total.Duplicates += gotStats.Duplicates
	}
	if total.PrependingRemoved == 0 || total.IXPSpliced == 0 || total.ReservedDiscarded == 0 ||
		total.LoopDiscarded == 0 || total.TooShort == 0 || total.Duplicates == 0 {
		t.Errorf("the corpora never reached some branch: %+v", total)
	}
}

// TestSanitizeOneAllocs bounds the live path's per-announcement cost:
// the cleaned hops and nothing else.
func TestSanitizeOneAllocs(t *testing.T) {
	hops := []uint32{10, 10, 20, 30, 40}
	if n := testing.AllocsPerRun(100, func() { SanitizeOne(hops) }); n > 1 {
		t.Errorf("SanitizeOne allocates %v times per call, want at most 1", n)
	}
}

// TestSanitizeFromReadGroups is the gate on cleaning per group: a corpus
// as Read returns it at every block size — rows sharing one slice per
// block and text, so one path's rows sit in several groups, two texts
// that parse to one sequence among them — cleans to the oracle's rows
// and stats, and to the very grouping the same rows give when every row
// holds a slice of its own. Each way of changing the read rows (one
// replaced, one appended, the rows reordered) leaves a grouping that no
// longer describes them: the pass falls back to grouping by content and
// still matches the oracle and the unshared rows changed alike.
func TestSanitizeFromReadGroups(t *testing.T) {
	edits := map[string]func(*Dataset, *rand.Rand){
		"as read": func(*Dataset, *rand.Rand) {},
		"row replaced": func(d *Dataset, rng *rand.Rand) {
			d.Paths[rng.Intn(len(d.Paths))].ASNs = []uint32{7, 8, 9}
		},
		"row appended": func(d *Dataset, rng *rand.Rand) {
			d.Add(Path{Collector: "rv9", ASNs: d.Paths[rng.Intn(len(d.Paths))].ASNs})
		},
		"rows reordered": func(d *Dataset, _ *rand.Rand) { slices.Reverse(d.Paths) },
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		if err := Write(&buf, randomCorpus(rng, 20+rng.Intn(300))); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("rv1|192.0.2.0/24|1 2  3\nrv1|192.0.2.0/24|1 2 3\nrv2||01 2 3\n")
		var opts SanitizeOptions
		if seed%2 == 0 {
			opts.IXPASes = map[uint32]bool{555: true}
		}
		for _, size := range readBlockSizes {
			diffSanitizeRead(t, buf.Bytes(), size, seed, opts, edits)
		}
	}
}

// diffSanitizeRead reads file at blockSize and holds Sanitize and
// GroupByHopsFeed over the rows, as read and changed by each edit
// (drawing from seed), to the same rows with no slice shared.
func diffSanitizeRead(t *testing.T, file []byte, blockSize int, seed int64, opts SanitizeOptions, edits map[string]func(*Dataset, *rand.Rand)) {
	t.Helper()
	read, err := newReader(bytes.NewReader(file), blockSize).read()
	if err != nil {
		t.Fatal(err)
	}
	if groups, paths := len(read.groups.Hops), len(GroupByHopsFeed(read, nil).Hops); groups <= paths {
		t.Fatalf("seed %d block size %d: %d read groups for %d paths, want a path in two groups", seed, blockSize, groups, paths)
	}
	for name, edit := range edits {
		changed := *read // the reader's grouping is copied along
		changed.Paths = slices.Clone(read.Paths)
		unshared := &Dataset{Paths: slices.Clone(read.Paths)}
		for i := range unshared.Paths {
			unshared.Paths[i].ASNs = slices.Clone(unshared.Paths[i].ASNs)
		}
		edit(&changed, rand.New(rand.NewSource(seed)))
		edit(unshared, rand.New(rand.NewSource(seed)))
		if trusted := changed.Groups() != nil; trusted != (name == "as read") {
			t.Fatalf("seed %d block size %d %s: reader's grouping trusted = %v", seed, blockSize, name, trusted)
		}
		got, gotStats := diffSanitize(t, changed.Clone(), opts)
		want, wantStats := Sanitize(unshared, opts)
		if gotStats != wantStats || !reflect.DeepEqual(got.Paths, want.Paths) || !reflect.DeepEqual(got.Groups(), want.Groups()) {
			t.Fatalf("seed %d block size %d %s: the read rows clean to other rows or groups than unshared ones", seed, blockSize, name)
		}
		if again, wantAgain := GroupByHopsFeed(&changed, nil), GroupByHopsFeed(unshared, nil); !reflect.DeepEqual(again, wantAgain) {
			t.Fatalf("seed %d block size %d %s: GroupByHopsFeed of the read rows %+v, of unshared ones %+v", seed, blockSize, name, again, wantAgain)
		}
	}
}

// TestReadAllocatesPerTextNotPerRow: a row's prefix and AS path are
// parsed from the line's bytes, so what a read allocates grows with its
// blocks and its distinct texts, not with its rows. Rows of 16 texts
// over 2 collectors and distinct prefixes: a string made per row, as
// netip.ParsePrefix needs, is a hundred times the bound.
func TestReadAllocatesPerTextNotPerRow(t *testing.T) {
	var in bytes.Buffer
	for i := 0; i < 100000; i++ {
		fmt.Fprintf(&in, "rv%d|10.%d.%d.0/24|%d 20 30\n", i%2, i>>8&255, i&255, 100+i%16)
	}
	read := func() (*reader, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rd := newReader(bytes.NewReader(in.Bytes()), readBlockSize)
		if _, err := rd.read(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return rd, after.Mallocs - before.Mallocs
	}
	read() // warm the pool's workers
	rd, got := read()
	texts := 0
	for _, pb := range rd.parsed {
		texts += len(pb.texts) + len(pb.names)
	}
	bound := 24*uint64(len(rd.parsed)) + 3*uint64(texts) + 64
	t.Logf("%d rows in %d blocks, %d block texts and names: %d allocations, bound %d", 100000, len(rd.parsed), texts, got, bound)
	if got > bound {
		t.Errorf("Read of 100000 rows allocated %d times, more than 24 a block and 3 a text (%d)", got, bound)
	}
}

// TestReadAllocatesRowsOfSixteenBytes: what a read allocates beyond its
// tables is what it returns — a 72-byte Path and a 4-byte group number
// a row — and one 16-byte parse row a row until the dataset is written:
// 92 bytes. The bound is 100 bytes a row plus five block sizes for one
// slot's buffer and intern tables (a single worker reads every block
// through one slot; they take about 1.15 MB here). A parse row that
// holds a whole netip.Prefix is 40 bytes, 116 a row in all, and
// exceeds the bound by 1.4 MB over these 100 000 rows. Rows of 16 texts
// over 2 collectors and distinct prefixes, as in the count above.
func TestReadAllocatesRowsOfSixteenBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rows = 100000
	var in bytes.Buffer
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&in, "rv%d|10.%d.%d.0/24|%d 20 30\n", i%2, i>>8&255, i&255, 100+i%16)
	}
	read := func() (*reader, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rd := newReader(bytes.NewReader(in.Bytes()), readBlockSize)
		if _, err := rd.read(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return rd, after.TotalAlloc - before.TotalAlloc
	}
	read() // warm the pool
	rd, got := read()
	const bound = 100*rows + 5*readBlockSize
	t.Logf("%d rows in %d blocks: %d bytes, %.1f a row; bound %d", rows, len(rd.parsed), got, float64(got)/rows, bound)
	if got > bound {
		t.Errorf("Read of %d rows allocated %d bytes, more than 100 a row and five block sizes (%d)", rows, got, bound)
	}
}
