package paths

import (
	"cmp"
	"context"
	"slices"
	"strings"

	"github.com/asrank-go/asrank/internal/asn"
	"github.com/asrank-go/asrank/internal/trace"
)

// SanitizeOptions controls the sanitization pass.
type SanitizeOptions struct {
	// IXPASes are route-server ASNs to splice out of paths; IXP route
	// servers are not party to the business relationship between the
	// ASes they connect.
	IXPASes map[uint32]bool
}

// SanitizeStats counts what the sanitization pass did, feeding the
// input-data summary experiment (R1).
type SanitizeStats struct {
	Input             int // paths in
	Kept              int // paths out
	PrependingRemoved int // paths that had prepending compressed
	IXPSpliced        int // paths that had an IXP ASN removed
	ReservedDiscarded int // paths discarded for reserved/private ASNs
	LoopDiscarded     int // paths discarded for AS loops
	TooShort          int // paths with fewer than 2 hops after cleaning
	Duplicates        int // exact duplicates collapsed
}

// Sanitize applies the paper's step-1 cleaning to ds and returns a new
// dataset: prepending is compressed, IXP route-server ASNs are spliced
// out, and paths containing reserved ASNs or loops are discarded, as are
// exact duplicates. ds is left as it was: Sanitize cleans ds.Clone()
// with SanitizeCtx, whose output is described there.
func Sanitize(ds *Dataset, opts SanitizeOptions) (*Dataset, SanitizeStats) {
	out, stats, _ := SanitizeCtx(context.Background(), ds.Clone(), opts, nil)
	return out, stats
}

// SanitizeCtx is Sanitize without the copy: it writes its output into
// ds's rows, so ds is given up — the output's Paths shares its array,
// and ds itself is left empty, no rows and no grouping, so a caller
// that reads it afterwards reads an empty dataset rather than rows that
// are no longer its own. Read's rows are the caller's to give; a caller
// that still needs them calls Sanitize. When ctx carries
// a span, the pass records a "paths.sanitize" span with input/kept
// counts as attributes. It hands each distinct cleaned hop sequence to
// feed (which may be nil) as it is first seen, and closes the feed
// once the last is known: before the duplicate collapse, so a reader
// has every sequence while the pass still works.
//
// Cleaned hop sequences are interned: output rows that carry the same
// path share one ASNs slice (see Path) — an input row's own slice when
// cleaning left its hops as they were — and the output carries that
// grouping of its rows by hop sequence (see Dataset), which SanitizeCtx
// also returns: equal to GroupByHopsFeed(out, nil), read-only.
// PrependingRemoved and IXPSpliced count kept paths only, preserving
// Input == Kept + ReservedDiscarded + LoopDiscarded + TooShort +
// Duplicates with each kept row attributable to the corpus that
// inference actually sees.
//
// The pass runs in three sweeps. The first cleans and interns each
// group of the input once — a group of the dataset's own grouping
// while that describes its rows, else each row on its own — and
// records each row's cleaned sequence through its group. The second
// finds duplicates: two rows are duplicates only if they clean to the
// same sequence, so the rows of each sequence (a handful) are ordered by
// prefix and collector and the equal runs collapsed — no corpus-wide set
// of row keys. The third compacts the survivors forward, in input
// order, into ds's rows and their sequences into the per-row verdicts
// the first sweep filled: the write index never passes the read index,
// and the second sweep has read every prefix and collector.
func SanitizeCtx(ctx context.Context, ds *Dataset, opts SanitizeOptions, feed *Feed) (*Dataset, SanitizeStats, *Groups) {
	_, ph := trace.StartPhase(ctx, "paths.sanitize")
	stats := SanitizeStats{Input: len(ds.Paths)}
	gr := newGrouper(ds, feed, true, opts.IXPASes)
	rows := make([]int32, len(ds.Paths)) // per input row: seq<<rowInfoBits | info, or rowDropped
	for i := range rows {
		v := gr.verdict(i)
		rows[i] = rowDropped
		switch v {
		case groupReserved:
			stats.ReservedDiscarded++
		case groupLoop:
			stats.LoopDiscarded++
		case groupTooShort:
			stats.TooShort++
		default:
			rows[i] = v
		}
	}
	groups := &Groups{Hops: gr.seqs.hops}

	stats.Duplicates = dropDuplicates(ds.Paths, rows, len(groups.Hops))

	// The first row of a sequence is never a duplicate, so every
	// interned sequence keeps at least one row.
	stats.Kept = stats.Input - stats.ReservedDiscarded - stats.LoopDiscarded - stats.TooShort - stats.Duplicates
	kept, of := ds.Paths[:0], rows[:0]
	for i, row := range rows {
		if row == rowDropped {
			continue
		}
		if pathInfo(row)&pathPrepended != 0 {
			stats.PrependingRemoved++
		}
		if pathInfo(row)&pathIXP != 0 {
			stats.IXPSpliced++
		}
		p, seq := ds.Paths[i], row>>rowInfoBits
		p.ASNs = groups.Hops[seq]
		kept, of = append(kept, p), append(of, seq)
	}
	// Zero the rows past the kept ones, so the array keeps no dropped
	// row's hops alive, and empty ds: it was given up.
	clear(ds.Paths[len(kept):])
	*ds = Dataset{}
	groups.Of = of
	out := &Dataset{Paths: kept, groups: groups}
	if span := ph.Span; span != nil {
		span.SetAttrInt("input", int64(stats.Input))
		span.SetAttrInt("kept", int64(stats.Kept))
		span.SetAttrInt("duplicates", int64(stats.Duplicates))
	}
	ph.End(sanDuration, nil)
	stats.record()
	return out, stats, groups
}

// A surviving row is its sequence id above the two pathInfo bits
// sanitizePath reported for it.
const (
	rowInfoBits       = 2
	rowDropped  int32 = -1
)

// dupKey orders the rows of one sequence so that duplicates are
// neighbours, the earliest first.
type dupKey struct {
	prefix    PrefixKey
	collector string
	row       int32
}

func (k dupKey) compare(o dupKey) int {
	if k.prefix != o.prefix {
		return k.prefix.Compare(o.prefix)
	}
	if k.collector != o.collector {
		return strings.Compare(k.collector, o.collector)
	}
	return cmp.Compare(k.row, o.row)
}

// dropDuplicates marks as dropped every surviving row that repeats an
// earlier row's (collector, prefix, sequence), and returns how many it
// marked. Rows are bucketed by sequence with one counting sort; a bucket
// of n rows is then sorted, so one path under every prefix of the table
// costs n log n, not n².
func dropDuplicates(in []Path, rows []int32, nseq int) int {
	end := make([]int32, nseq) // end[s]: where sequence s's bucket ends in byseq
	survivors := 0
	for _, row := range rows {
		if row != rowDropped {
			end[row>>rowInfoBits]++
			survivors++
		}
	}
	var sum int32
	for s, n := range end {
		end[s] = sum // the bucket's start, advanced to its end by the fill
		sum += n
	}
	byseq := make([]int32, survivors) // surviving row numbers, bucketed, ascending within a bucket
	for i, row := range rows {
		if row != rowDropped {
			s := row >> rowInfoBits
			byseq[end[s]] = int32(i)
			end[s]++
		}
	}

	var (
		dups int
		keys []dupKey
		lo   int32
	)
	for _, hi := range end {
		bucket := byseq[lo:hi]
		lo = hi
		if len(bucket) < 2 {
			continue
		}
		keys = keys[:0]
		for _, i := range bucket {
			keys = append(keys, dupKey{prefix: FlatPrefix(in[i].Prefix), collector: in[i].Collector, row: i})
		}
		slices.SortFunc(keys, dupKey.compare)
		for k := 1; k < len(keys); k++ {
			if keys[k].prefix == keys[k-1].prefix && keys[k].collector == keys[k-1].collector {
				rows[keys[k].row] = rowDropped
				dups++
			}
		}
	}
	return dups
}

// SanitizeOne applies the per-path half of the step-1 cleaning to a
// single AS path: prepending compressed, reserved-ASN and loop paths
// discarded, too-short results discarded. It returns the cleaned hops
// and whether the path survives — exactly the keep/clean decision
// Sanitize makes for each input row when given no IXP list, minus the
// corpus-level duplicate collapse (a streaming consumer
// reference-counts distinct cleaned paths itself). The returned slice
// is freshly allocated, and is the call's only allocation.
//
//asrank:hotpath
func SanitizeOne(asns []uint32) ([]uint32, bool) {
	cleaned, info := sanitizePath(make([]uint32, 0, len(asns)), asns, nil)
	if info < 0 || len(cleaned) < 2 {
		return nil, false
	}
	return cleaned, true
}

// flags describing what sanitizePath observed; the two discard reasons
// are exclusive sentinel values.
type pathInfo int

const (
	pathPrepended pathInfo = 1 << iota
	pathIXP

	pathReserved pathInfo = -1
	pathLoop     pathInfo = -2
)

// sanitizePath compresses prepending, splices IXP ASNs, and classifies
// the path, appending the cleaned hops to dst (which must not alias
// asns). Discarded paths return a sentinel and hops of no meaning.
func sanitizePath(dst, asns []uint32, ixp map[uint32]bool) ([]uint32, pathInfo) {
	var info pathInfo
	for _, a := range asns {
		if ixp[a] {
			info |= pathIXP
			continue
		}
		if asn.IsReserved(a) {
			return dst, pathReserved
		}
		if n := len(dst); n > 0 && dst[n-1] == a {
			info |= pathPrepended
			continue
		}
		dst = append(dst, a)
	}
	// After compression any repeat is a loop. Paths are a handful of
	// hops, so a scan beats a set.
	for i, a := range dst {
		if slices.Contains(dst[:i], a) {
			return dst, pathLoop
		}
	}
	return dst, info
}
