// Command experiments regenerates every table and figure of the
// paper's evaluation (R1–R14, see DESIGN.md) end to end: synthetic
// topology → route propagation → sanitization → inference → cones →
// validation.
//
// Usage:
//
//	experiments                    # run everything, print to stdout
//	experiments -run R5,R6         # a subset
//	experiments -out results/      # one file per experiment
//	experiments -scale 1000 -vps 10 -snapshots 8   # smaller workload
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/asrank-go/asrank/internal/experiments"
)

func main() {
	def := experiments.DefaultConfig()
	var (
		run       = flag.String("run", "all", "comma-separated experiment IDs (R1..R14) or 'all'")
		seed      = flag.Int64("seed", def.Seed, "deterministic seed")
		scale     = flag.Int("scale", def.Scale, "base topology size (ASes)")
		vps       = flag.Int("vps", def.VPs, "vantage points")
		snapshots = flag.Int("snapshots", def.Snapshots, "longitudinal snapshots")
		out       = flag.String("out", "", "output directory (default: stdout)")
	)
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, Scale: *scale, VPs: *vps, Snapshots: *snapshots}
	lab := experiments.NewLab(cfg)

	ids := experiments.IDs()
	if *run != "all" {
		ids = strings.Split(*run, ",")
	}
	// Resolve every ID before running any, so a typo fails at once.
	fns := make([]func(*experiments.Lab) *experiments.Report, len(ids))
	for i, id := range ids {
		id = strings.TrimSpace(id)
		if fns[i] = experiments.ByID(id); fns[i] == nil {
			fatal(fmt.Errorf("unknown experiment %q (have %v)", id, experiments.IDs()))
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}
	for _, fn := range fns {
		start := time.Now()
		rep := fn(lab)
		elapsed := time.Since(start).Round(time.Millisecond)
		if *out == "" {
			fmt.Println(rep.String())
			fmt.Printf("[%s completed in %s]\n\n", rep.ID, elapsed)
			continue
		}
		name := filepath.Join(*out, rep.ID+".txt")
		if err := os.WriteFile(name, []byte(rep.String()+"\n"), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%s -> %s (%s)\n", rep.ID, name, elapsed)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
