// Command bgpsim propagates BGP routes over a ground-truth topology
// under the Gao–Rexford export model and writes the AS paths a route
// collector would record, as a text path file or a TABLE_DUMP_V2 MRT
// RIB snapshot.
//
// Usage:
//
//	bgpsim -topo topo.txt -vps 20 -o paths.txt
//	bgpsim -topo topo.txt -vps 20 -format mrt -o rib.mrt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/chaos"
	collectorpkg "github.com/asrank-go/asrank/internal/collector"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/trace"
	"github.com/asrank-go/asrank/internal/tracecli"
)

func main() {
	var (
		topoFile  = flag.String("topo", "", "topology file from topogen (required)")
		seed      = flag.Int64("seed", 20130401, "deterministic seed")
		vps       = flag.Int("vps", 20, "number of vantage points")
		partial   = flag.Float64("partial", 0.35, "fraction of VPs exporting only customer routes")
		prepend   = flag.Float64("prepend", 0.08, "fraction of origins that prepend")
		poison    = flag.Float64("poison", 0.0005, "per-path poisoned-path probability")
		leak      = flag.Float64("leak", 0.0003, "per-path private-ASN leak probability")
		docs      = flag.Float64("communities", 0.25, "fraction of ASes attaching relationship communities")
		collector = flag.String("collector", "sim-rv2", "collector name")
		format    = flag.String("format", "text", "output format: text or mrt")
		out       = flag.String("o", "-", "output file ('-' = stdout)")
		replay    = flag.String("replay", "", "instead of writing a file, announce over BGP to this collector address")

		retries     = flag.Int("retries", 0, "replay retries per VP session (0 = default)")
		workers     = flag.Int("workers", 0, "concurrent replay sessions (0 = GOMAXPROCS)")
		chaosSeed   = flag.Int64("chaos-seed", 0, "inject deterministic faults into replay dials (0 = off)")
		chaosFaults = flag.Int("chaos-faults", 16, "fault budget when -chaos-seed is set (0 = unlimited)")
		stats       = flag.Bool("stats", false, "print the metrics report to stderr after replay")
		traceFile   = flag.String("trace", "", "write a Chrome trace_event JSON span trace here (open in Perfetto)")
	)
	flag.Parse()
	if *topoFile == "" {
		fatal(fmt.Errorf("-topo is required"))
	}

	f, err := os.Open(*topoFile)
	if err != nil {
		fatal(err)
	}
	topo, err := topology.Read(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	opts := bgpsim.Options{
		Seed:             *seed,
		NumVPs:           *vps,
		Collector:        *collector,
		PartialFeedFrac:  *partial,
		PrependRate:      *prepend,
		PoisonRate:       *poison,
		PrivateLeakRate:  *leak,
		CommunityDocFrac: *docs,
	}
	tr := tracecli.Start(*traceFile, "bgpsim.run")
	tr.Root().SetAttrInt("seed", *seed)
	tr.Root().SetAttrInt("vps", int64(*vps))
	_, propSpan := trace.StartSpan(tr.Context(), "bgpsim.propagate")
	res, err := bgpsim.Run(topo, opts)
	if err != nil {
		fatal(err)
	}
	propSpan.SetAttrInt("paths", int64(res.Dataset.NumPaths()))
	propSpan.End()
	fmt.Fprintf(os.Stderr, "propagated routes: %d paths from %d VPs (%d partial)\n",
		res.Dataset.NumPaths(), len(res.VPs), len(res.PartialVPs))

	if *replay != "" {
		ropts := collectorpkg.ReplayOptions{MaxRetries: *retries, Workers: *workers}
		if *chaosSeed != 0 {
			inj := chaos.New(chaos.Options{
				Seed:           *chaosSeed,
				ResetProb:      0.05,
				ShortWriteProb: 0.05,
				CorruptProb:    0.05,
				DelayProb:      0.10,
				ChunkProb:      0.20,
				FaultBudget:    *chaosFaults,
			})
			ropts.Dial = inj.Dialer(nil)
			defer func() {
				fmt.Fprintf(os.Stderr, "chaos: %d faults injected (seed %d)\n",
					inj.FaultsInjected(), *chaosSeed)
			}()
		}
		if err := collectorpkg.ReplayAllCtx(tr.Context(), *replay, res, ropts); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "replayed %d VP sessions into %s\n", len(res.VPs), *replay)
		if *stats {
			if err := obs.Default().WriteReport(os.Stderr); err != nil {
				fatal(err)
			}
		}
		finishTrace(tr, *stats)
		return
	}

	w := os.Stdout
	if *out != "-" {
		w, err = os.Create(*out)
		if err != nil {
			fatal(err)
		}
	}
	switch *format {
	case "text":
		err = paths.Write(w, res.Dataset)
	case "mrt":
		err = bgpsim.ExportMRT(w, res, time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC))
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
	// Quota and NFS report a failed write only here.
	if err := w.Close(); err != nil {
		fatal(err)
	}
	finishTrace(tr, *stats)
}

// finishTrace writes the -trace file (tree to stderr too when -stats).
func finishTrace(tr *tracecli.Run, stats bool) {
	var tree io.Writer
	if stats {
		tree = os.Stderr
	}
	if err := tr.Finish(tree); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bgpsim:", err)
	os.Exit(1)
}
