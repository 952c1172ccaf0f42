// Command ascone computes customer cones and the AS ranking from a
// path corpus and a relationship file (or infers relationships on the
// fly).
//
// Usage:
//
//	ascone -paths paths.txt -rels rels.txt -method pp -top 20
//	ascone -paths paths.txt -method recursive         # infer first
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/relfile"
	"github.com/asrank-go/asrank/internal/stats"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/tracecli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "ascone:", err)
		os.Exit(1)
	}
}

// run is one ascone invocation: the ranked table goes to stdout,
// progress and the -stats report to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ascone", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		pathsFile = fs.String("paths", "", "text path file (required)")
		relsFile  = fs.String("rels", "", "relationship file; inferred when omitted")
		method    = fs.String("method", "pp", "cone definition: pp, bgp, or recursive")
		weight    = fs.String("weight", "ases", "cone size metric: ases, prefixes, or addresses")
		top       = fs.Int("top", 20, "rows to print")
		ppdc      = fs.String("ppdc", "", "also write cone membership in CAIDA ppdc-ases format here")
		report    = fs.Bool("stats", false, "dump the metrics registry as a run report to stderr after the run")
		traceFile = fs.String("trace", "", "write a Chrome trace_event JSON span trace here (open in Perfetto)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pathsFile == "" {
		return fmt.Errorf("-paths is required")
	}
	// Both selectors are resolved before the corpus is read, so a typo
	// costs nothing and leaves no -ppdc file behind.
	var engine func(*cone.Relations, *paths.Dataset) *cone.Rows
	switch *method {
	case "pp":
		engine = (*cone.Relations).ProviderPeerObservedBits
	case "bgp":
		engine = (*cone.Relations).BGPObservedBits
	case "recursive":
		engine = func(r *cone.Relations, _ *paths.Dataset) *cone.Rows { return r.RecursiveBits() }
	default:
		return fmt.Errorf("unknown method %q (want pp, bgp, or recursive)", *method)
	}
	var weigh func(*cone.Rows, *paths.Dataset) map[uint32]int
	switch *weight {
	case "ases":
		weigh = func(cones *cone.Rows, _ *paths.Dataset) map[uint32]int { return cones.Sizes() }
	case "prefixes":
		weigh = func(cones *cone.Rows, ds *paths.Dataset) map[uint32]int {
			return weightedSizes(cones, cone.PrefixCounts(ds))
		}
	case "addresses":
		weigh = func(cones *cone.Rows, ds *paths.Dataset) map[uint32]int {
			return weightedSizes(cones, cone.AddressCounts(ds))
		}
	default:
		return fmt.Errorf("unknown weight %q (want ases, prefixes, or addresses)", *weight)
	}
	f, err := os.Open(*pathsFile)
	if err != nil {
		return err
	}
	tr := tracecli.Start(*traceFile, "ascone.run")
	tr.Root().SetAttr("method", *method)
	tr.Root().SetAttr("weight", *weight)
	ds, err := paths.ReadCtx(tr.Context(), f)
	f.Close()
	if err != nil {
		return err
	}
	ds, _, _ = paths.SanitizeCtx(tr.Context(), ds, paths.SanitizeOptions{}, nil)

	var rels map[paths.Link]topology.Relationship
	var transitDegree map[uint32]int
	if *relsFile != "" {
		rf, err := os.Open(*relsFile)
		if err != nil {
			return err
		}
		rels, err = relfile.Read(rf)
		rf.Close()
		if err != nil {
			return err
		}
		transitDegree = ds.TransitDegrees()
	} else {
		res := core.InferCtx(tr.Context(), ds, core.Options{})
		rels = res.Rels
		transitDegree = res.TransitDegree
		// Cones are credited and weighted over the corpus the
		// relationships were inferred from — the one step 4 left, which
		// is what asrankd serves (warehouse.FromResult).
		ds = res.Dataset
	}

	cones := engine(cone.NewRelations(rels).WithContext(tr.Context()), ds)
	if *ppdc != "" {
		f, err := os.Create(*ppdc)
		if err != nil {
			return err
		}
		err = cone.WritePPDC(f, cones, fmt.Sprintf("%s customer cones", *method))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote cone membership to %s\n", *ppdc)
	}

	sizes := weigh(cones, ds)
	order := cone.Rank(sizes, transitDegree)
	if *top > len(order) {
		*top = len(order)
	}
	t := stats.NewTable(fmt.Sprintf("AS rank by %s customer cone (%s)", *method, *weight),
		"rank", "AS", "cone size", "transit degree")
	for i := 0; i < *top; i++ {
		asn := order[i]
		t.AddRow(i+1, asn, sizes[asn], transitDegree[asn])
	}
	fmt.Fprint(stdout, t.String())
	var tree io.Writer
	if *report {
		obs.Default().WriteReport(stderr)
		tree = stderr
	}
	return tr.Finish(tree)
}

// weightedSizes sums an origin-keyed weight (cone.PrefixCounts or
// cone.AddressCounts) over every cone, keyed by ASN.
func weightedSizes[V int | int64](cones *cone.Rows, weight map[uint32]V) map[uint32]int {
	idx := cones.Index()
	w := make([]int64, idx.Len())
	for asn, v := range weight {
		if p, ok := idx.Pos(asn); ok {
			w[p] = int64(v)
		}
	}
	sizes := make(map[uint32]int, idx.Len())
	for p, v := range cones.WeightedSizes(w) {
		sizes[idx.ASN(int32(p))] = int(v)
	}
	return sizes
}
