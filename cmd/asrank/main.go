// Command asrank infers AS relationships from a path corpus (text path
// file or MRT RIB snapshot) and writes them in the CAIDA serial-1
// format (<a>|<b>|-1 for provider→customer, <a>|<b>|0 for peers).
//
// Usage:
//
//	asrank -paths paths.txt -o rels.txt
//	asrank -mrt rib.mrt -o rels.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/relfile"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/tracecli"
)

func main() {
	var (
		pathsFile = flag.String("paths", "", "text path file (collector|prefix|asns)")
		mrtFile   = flag.String("mrt", "", "MRT TABLE_DUMP_V2 RIB file")
		collector = flag.String("collector", "mrt", "collector label for -mrt input")
		out       = flag.String("o", "-", "relationships output ('-' = stdout)")
		steps     = flag.Bool("steps", false, "print per-step link counts to stderr")
		stats     = flag.Bool("stats", false, "dump the metrics registry as a run report to stderr after inference")
		traceFile = flag.String("trace", "", "write a Chrome trace_event JSON span trace here (open in Perfetto)")
	)
	flag.Parse()

	// The trace starts before the corpus is read: the read is a stage of
	// the run like any other.
	tr := tracecli.Start(*traceFile, "asrank.run")
	var (
		ds  *paths.Dataset
		err error
	)
	switch {
	case *pathsFile != "" && *mrtFile != "":
		fatal(fmt.Errorf("use -paths or -mrt, not both"))
	case *pathsFile != "":
		f, ferr := os.Open(*pathsFile)
		if ferr != nil {
			fatal(ferr)
		}
		ds, err = paths.ReadCtx(tr.Context(), f)
		f.Close()
	case *mrtFile != "":
		f, ferr := os.Open(*mrtFile)
		if ferr != nil {
			fatal(ferr)
		}
		ds, _, err = paths.FromMRT(f, *collector)
		f.Close()
	default:
		fatal(fmt.Errorf("one of -paths or -mrt is required"))
	}
	if err != nil {
		fatal(err)
	}

	tr.Root().SetAttrInt("paths", int64(len(ds.Paths)))
	res := core.InferCtx(tr.Context(), ds, core.Options{Sanitize: true})

	var c2p, p2p int
	for _, rel := range res.Rels {
		if rel == topology.P2P {
			p2p++
		} else {
			c2p++
		}
	}
	fmt.Fprintf(os.Stderr, "inferred %d links: %d c2p, %d p2p; clique %v; %d poisoned paths discarded\n",
		len(res.Rels), c2p, p2p, res.Clique, res.PoisonedPaths)
	if *steps {
		for _, c := range res.CountsByStep() {
			fmt.Fprintf(os.Stderr, "  %-14s c2p=%-7d p2p=%d\n", c.Step, c.C2P, c.P2P)
		}
	}
	if *stats {
		obs.Default().WriteReport(os.Stderr)
	}
	var tree io.Writer
	if *stats {
		tree = os.Stderr
	}
	if err := tr.Finish(tree); err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "-" {
		w, err = os.Create(*out)
		if err != nil {
			fatal(err)
		}
	}
	comments := []string{
		"inferred by asrank (reproduction of Luckie et al., IMC 2013)",
		fmt.Sprintf("clique: %v", res.Clique),
		fmt.Sprintf("links: %d (c2p %d, p2p %d)", len(res.Rels), c2p, p2p),
	}
	if err := relfile.Write(w, res.Rels, comments...); err != nil {
		fatal(err)
	}
	// Quota and NFS report a failed write only here.
	if err := w.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asrank:", err)
	os.Exit(1)
}
