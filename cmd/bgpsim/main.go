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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
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
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine is err as bgpsim reports it: behind the command's name,
// which the simulator's own errors already begin with.
func errorLine(err error) string {
	const prefix = "bgpsim: "
	msg := err.Error()
	if strings.HasPrefix(msg, prefix) {
		return msg
	}
	return prefix + msg
}

// run is one bgpsim invocation: the corpus goes to -o (stdout for "-",
// closed here so a failed flush is reported), progress and the -stats
// report to stderr.
func run(args []string, stdout io.WriteCloser, stderr io.Writer) error {
	fs := flag.NewFlagSet("bgpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topoFile  = fs.String("topo", "", "topology file from topogen (required)")
		seed      = fs.Int64("seed", 20130401, "deterministic seed")
		vps       = fs.Int("vps", 20, "number of vantage points")
		partial   = fs.Float64("partial", 0.35, "fraction of VPs exporting only customer routes")
		prepend   = fs.Float64("prepend", 0.08, "fraction of origins that prepend")
		poison    = fs.Float64("poison", 0.0005, "per-path poisoned-path probability")
		leak      = fs.Float64("leak", 0.0003, "per-path private-ASN leak probability")
		docs      = fs.Float64("communities", 0.25, "fraction of ASes attaching relationship communities")
		collector = fs.String("collector", "sim-rv2", "collector name")
		format    = fs.String("format", "text", "output format: text or mrt")
		out       = fs.String("o", "-", "output file ('-' = stdout)")
		replay    = fs.String("replay", "", "instead of writing a file, announce over BGP to this collector address")

		retries     = fs.Int("retries", 0, "replay retries per VP session (0 = default)")
		workers     = fs.Int("workers", 0, "concurrent replay sessions (0 = GOMAXPROCS)")
		chaosSeed   = fs.Int64("chaos-seed", 0, "inject deterministic faults into replay dials (0 = off)")
		chaosFaults = fs.Int("chaos-faults", 16, "fault budget when -chaos-seed is set (0 = unlimited)")
		stats       = fs.Bool("stats", false, "print the metrics report to stderr after replay")
		traceFile   = fs.String("trace", "", "write a Chrome trace_event JSON span trace here (open in Perfetto)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *topoFile == "" {
		return fmt.Errorf("-topo is required")
	}
	// The format is resolved before the topology is read, so a typo
	// costs nothing and truncates no -o file.
	var export func(io.Writer, *bgpsim.Result) error
	switch *format {
	case "text":
		export = func(w io.Writer, res *bgpsim.Result) error { return paths.Write(w, res.Dataset) }
	case "mrt":
		export = func(w io.Writer, res *bgpsim.Result) error {
			return bgpsim.ExportMRT(w, res, time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC))
		}
	default:
		return fmt.Errorf("unknown format %q (want text or mrt)", *format)
	}

	f, err := os.Open(*topoFile)
	if err != nil {
		return err
	}
	topo, err := topology.Read(f)
	f.Close()
	if err != nil {
		return err
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
		return err
	}
	propSpan.SetAttrInt("paths", int64(res.Dataset.NumPaths()))
	propSpan.End()
	fmt.Fprintf(stderr, "propagated routes: %d paths from %d VPs (%d partial)\n",
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
				fmt.Fprintf(stderr, "chaos: %d faults injected (seed %d)\n",
					inj.FaultsInjected(), *chaosSeed)
			}()
		}
		if err := collectorpkg.ReplayAllCtx(tr.Context(), *replay, res, ropts); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "replayed %d VP sessions into %s\n", len(res.VPs), *replay)
		if *stats {
			if err := obs.Default().WriteReport(stderr); err != nil {
				return err
			}
		}
		return finishTrace(tr, *stats, stderr)
	}

	w := stdout
	if *out != "-" {
		w, err = os.Create(*out)
		if err != nil {
			return err
		}
	}
	if err := export(w, res); err != nil {
		return err
	}
	// Quota and NFS report a failed write only here.
	if err := w.Close(); err != nil {
		return err
	}
	return finishTrace(tr, *stats, stderr)
}

// finishTrace writes the -trace file (tree to stderr too when -stats).
func finishTrace(tr *tracecli.Run, stats bool, stderr io.Writer) error {
	var tree io.Writer
	if stats {
		tree = stderr
	}
	return tr.Finish(tree)
}
