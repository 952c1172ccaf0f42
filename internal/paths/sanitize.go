package paths

import (
	"context"

	"github.com/asrank-go/asrank/internal/asn"
	"github.com/asrank-go/asrank/internal/pool"
	"github.com/asrank-go/asrank/internal/trace"
)

// SanitizeOptions controls the sanitization pass.
type SanitizeOptions struct {
	// IXPASes are route-server ASNs to splice out of paths; IXP route
	// servers are not party to the business relationship between the
	// ASes they connect.
	IXPASes map[uint32]bool
	// KeepDuplicates retains byte-identical (collector, prefix, path)
	// duplicates instead of collapsing them.
	KeepDuplicates bool
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
// (by default) exact duplicates.
//
// Per-path cleaning is sharded across a worker pool sized from
// GOMAXPROCS; the discard/dedup bookkeeping then walks the cleaned paths
// in input order, so output and stats are identical at any setting of it.
// PrependingRemoved and IXPSpliced count kept paths only, preserving
// Input == Kept + ReservedDiscarded + LoopDiscarded + TooShort +
// Duplicates with each kept row attributable to the corpus that
// inference actually sees.
func Sanitize(ds *Dataset, opts SanitizeOptions) (*Dataset, SanitizeStats) {
	return SanitizeCtx(context.Background(), ds, opts)
}

// SanitizeCtx is Sanitize with a context for tracing: when ctx carries
// a span, the pass records a "paths.sanitize" span with per-stage
// children ("paths.sanitize.clean" fans per-shard pool.task spans
// across the worker goroutines; "paths.sanitize.sweep" is the
// sequential bookkeeping walk) and input/kept counts as attributes.
func SanitizeCtx(ctx context.Context, ds *Dataset, opts SanitizeOptions) (*Dataset, SanitizeStats) {
	ctx, ph := trace.StartPhase(ctx, "paths.sanitize")
	stats := SanitizeStats{Input: len(ds.Paths)}
	out := &Dataset{Paths: make([]Path, 0, len(ds.Paths))}
	seen := make(map[string]bool)

	type cleanedPath struct {
		asns []uint32
		info pathInfo
	}
	cleanedPaths := make([]cleanedPath, len(ds.Paths))
	cleanCtx, cleanSpan := trace.StartSpan(ctx, "paths.sanitize.clean")
	pool.RangeCtx(cleanCtx, 0, len(ds.Paths), func(_ context.Context, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			asns, info := sanitizePath(ds.Paths[i].ASNs, opts.IXPASes)
			cleanedPaths[i] = cleanedPath{asns: asns, info: info}
		}
	})
	cleanSpan.End()

	_, sweepSpan := trace.StartSpan(ctx, "paths.sanitize.sweep")
	for i, p := range ds.Paths {
		cleaned, info := cleanedPaths[i].asns, cleanedPaths[i].info
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
		if !opts.KeepDuplicates {
			key := dupKey(np)
			if seen[key] {
				stats.Duplicates++
				continue
			}
			seen[key] = true
		}
		if info&pathPrepended != 0 {
			stats.PrependingRemoved++
		}
		if info&pathIXP != 0 {
			stats.IXPSpliced++
		}
		out.Add(np)
	}
	sweepSpan.End()
	stats.Kept = len(out.Paths)
	if span := ph.Span; span != nil {
		span.SetAttrInt("input", int64(stats.Input))
		span.SetAttrInt("kept", int64(stats.Kept))
		span.SetAttrInt("duplicates", int64(stats.Duplicates))
	}
	ph.End(sanDuration, nil)
	stats.record()
	return out, stats
}

// SanitizeOne applies the per-path half of the step-1 cleaning to a
// single AS path: prepending compressed, IXP route-server ASNs spliced
// out, reserved-ASN and loop paths discarded, too-short results
// discarded. It returns the cleaned hops and whether the path survives
// — exactly the keep/clean decision Sanitize makes for each input row,
// minus the corpus-level duplicate collapse (a streaming consumer
// reference-counts distinct cleaned paths itself). The returned slice
// is freshly allocated.
func SanitizeOne(asns []uint32, ixp map[uint32]bool) ([]uint32, bool) {
	cleaned, info := sanitizePath(asns, ixp)
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
// the path. It returns nil and a sentinel for discarded paths.
func sanitizePath(asns []uint32, ixp map[uint32]bool) ([]uint32, pathInfo) {
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
	// After compression any repeat is a loop.
	seen := make(map[uint32]bool, len(cleaned))
	for _, a := range cleaned {
		if seen[a] {
			return nil, pathLoop
		}
		seen[a] = true
	}
	return cleaned, info
}

func dupKey(p Path) string {
	// Collector and prefix disambiguate; ASNs appended as raw bytes.
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
