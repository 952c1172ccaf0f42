// Command benchmark is the repository's performance ledger: four
// workloads over the asrankd pipeline (RIB paths → sanitize →
// rank/clique → steps 5–9 → cones → warehouse → served ranking), each
// checked against ground truth or an independent reference, timed from
// outside the program.
//
//	go run ./benchmark                                  # every workload, both passes
//	go run ./benchmark -workload live_5k -seed 7        # one workload, one seed
//	go run ./benchmark -workload batch_10k -trace 1     # the traced pass only
//	go run ./benchmark -selfcheck                       # two sets, compared against BENCHMARK.json
//
// One invocation of one workload with -trace 0 or 1 is one pass: it
// sets up, measures for -seconds, checks its outputs, prints every
// metric of the pass by name with its unit, and ends standard output
// with one JSON line {correct, attempted, failed, metrics}. -trace 0
// reports the end-to-end metrics with tracing off; -trace 1 reports the
// per-layer metrics from spans recorded around each public call into
// the program, and writes out/<workload>.trace.json and
// out/<workload>.json beside this file. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// outDir holds everything a run writes: trace files, reports, and the
// scratch warehouses. It is relative to the checkout root, which is
// where `go run ./benchmark` is started.
const outDir = "benchmark/out"

// config is one pass of one workload.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
}

// result is what one pass measured.
type result struct {
	cfg     config
	checks  *checker
	metrics map[string]float64
	notes   []string // sample counts and other context, printed as comments
	corpus  corpusCounts
	trace   *tracer // nil on the untraced pass
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setOp records the gated per-operation figures of a measured window:
// the median operation time and the median CPU time per operation, both
// in reference-machine milliseconds, and the bytes allocated per
// operation.
func (r *result) setOp(w *window, op, cpu *calibrated, allocKB float64) error {
	calib, err := w.calibMs()
	if err != nil {
		return err
	}
	r.set("op_ref_ms", op.ref())
	r.set("cpu_ref_ms_per_op", cpu.ref())
	r.set("alloc_kb_per_op", allocKB)
	r.set("machine.calib_ms", calib)
	r.note("measured: op median %.5g ms, CPU %.5g ms/op; calibration kernel %.1f ms (median of %d), reference %.0f ms",
		median(op.ms), median(cpu.ms), calib, len(w.kernelMs), refCalibMs)
	return nil
}

// setSetup records the set-up time that began at begin, in
// reference-machine seconds: as measured × refCalibMs / the median of
// the kernel samples w took through the set-up. The runner's speed moves
// by tens of percent between one half hour and the next, which an
// uncalibrated set-up time (mostly the topology generator and the route
// simulator: allocation-heavy, like the program) follows in full.
func (r *result) setSetup(begin time.Time, w *window) error {
	w.calibrate()
	measured := time.Since(begin).Seconds()
	calib, err := w.calibMs()
	if err != nil {
		return err
	}
	r.set("setup_s", measured*refCalibMs/calib)
	r.note("set-up: %.4g s measured; calibration kernel %.1f ms (median of %d)", measured, calib, len(w.kernelMs))
	return nil
}

// workloads maps each name to its runner, in the order the full set runs.
var workloads = []struct {
	name string
	run  func(cfg config, r *result) error
}{
	{"batch_10k", runBatch},
	{"live_5k", runLive},
	{"serve_5k", runServe},
	{"store_5k", runStore},
}

// traceMode is the -trace flag: "0" and "1" select one pass, as the
// driver passes them; left unset, both passes run.
type traceMode struct{ untraced, traced bool }

func (m *traceMode) String() string { return "" }

func (m *traceMode) Set(s string) error {
	switch s {
	case "0", "false":
		*m = traceMode{untraced: true}
	case "1", "true":
		*m = traceMode{traced: true}
	default:
		return fmt.Errorf("want 0 or 1, got %q", s)
	}
	return nil
}

func main() {
	mode := traceMode{untraced: true, traced: true}
	var (
		workload  = flag.String("workload", "", "batch_10k, live_5k, serve_5k or store_5k (empty runs all four)")
		seed      = flag.Int64("seed", 42, "seed for the topology, the simulated collection, the churn schedule and the request mix")
		seconds   = flag.Int("seconds", 15, "how long one pass measures")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced set twice and fail if a gated metric differs by more than its bound in BENCHMARK.json")
	)
	flag.Var(&mode, "trace", "0: untraced pass only, 1: traced pass only (default: both)")
	flag.Parse()

	// asrankd logs every request and journal event through the standard
	// logger. The benchmark keeps the formatting and drops the text
	// (io.Discard itself would make log skip the formatting too).
	log.SetOutput(dropWriter{})

	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	var names []string
	for _, w := range workloads {
		if *workload == "" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fatalf("unknown workload %q", *workload)
	}
	// BENCHMARK.json sits at the checkout root; without it this is not a
	// checkout the benchmark can build or run in.
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	if err := spec.matchTables(); err != nil {
		fatalf("%v", err)
	}

	base := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *selfcheck {
		os.Exit(runSelfcheck(base, names, spec))
	}
	ok := true
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			if (traced && !mode.traced) || (!traced && !mode.untraced) {
				continue
			}
			cfg := base
			cfg.workload, cfg.traced = name, traced
			r, err := runPass(cfg)
			if err != nil {
				fatalf("%s: %v", name, err)
			}
			if err := r.print(os.Stdout); err != nil {
				fatalf("%s: %v", name, err)
			}
			ok = ok && r.checks.failed == 0
		}
	}
	if !ok {
		os.Exit(1)
	}
}

type dropWriter struct{}

func (dropWriter) Write(p []byte) (int, error) { return len(p), nil }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runPass runs one workload once, traced or not.
func runPass(cfg config) (*result, error) {
	r := &result{cfg: cfg, checks: &checker{}, metrics: map[string]float64{}}
	if cfg.traced {
		r.trace = newTracer()
	}
	for _, w := range workloads {
		if w.name != cfg.workload {
			continue
		}
		// Progress goes to standard error; standard output is the listing.
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d, %s, traced=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.traced)
		if err := w.run(cfg, r); err != nil {
			return nil, err
		}
	}
	r.set("failed_share", float64(r.checks.failed)/float64(max(1, r.checks.attempted)))
	if cfg.traced {
		if err := r.writeFiles(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// table returns the metric list this pass reports.
func (r *result) table() []metricDef {
	if r.cfg.traced {
		return perLayer
	}
	return endToEnd
}

// passLine is the last line of standard output of one pass.
type passLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print lists every metric the pass measured by name with its unit,
// then the driver's JSON line. There, a per-layer metric of a layer this
// workload does not drive reads 0: the layer did no work.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "# %s seed=%d seconds=%d traced=%v nproc=%d gomaxprocs=%d %s paths=%d ases=%d visible_links=%d\n",
		r.cfg.workload, r.cfg.seed, int(r.cfg.seconds.Seconds()), r.cfg.traced,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		r.corpus.Paths, r.corpus.ASes, r.corpus.VisibleLinks)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	line := passLine{
		Correct:   r.checks.failed == 0,
		Attempted: max(1, r.checks.attempted),
		Failed:    r.checks.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range r.table() {
		v, measured := r.metrics[m.name]
		if !measured && !r.cfg.traced {
			return fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		// The listing shows what this workload measured; the JSON line
		// carries every metric of the pass, as the driver requires.
		if measured {
			fmt.Fprintf(w, "%-36s %16.6g %s\n", m.name, v, m.unit)
		}
		line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	// The workload's own user-visible numbers, under the names the
	// README tables use, are printed on both passes.
	if !r.cfg.traced {
		for _, m := range perLayer {
			if v, ok := r.metrics[m.name]; ok {
				fmt.Fprintf(w, "%-36s %16.6g %s\n", m.name, v, m.unit)
			}
		}
	}
	for _, f := range r.checks.msgs {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// report is out/<workload>.json: every metric the traced pass measured
// and what it ran on, so a run describes itself.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"goVersion"`
	Commit     string             `json:"commit"`
	Corpus     corpusCounts       `json:"corpus"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

// commit names the revision the binary was built from when the
// toolchain stamped one; a checkout without VCS data has none.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func (r *result) writeFiles() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", outDir, err)
	}
	rep := report{
		Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: int(r.cfg.seconds.Seconds()),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Corpus: r.corpus,
		Attempted: r.checks.attempted, Failed: r.checks.failed, Failures: r.checks.msgs,
		Notes: r.notes, Metrics: r.metrics,
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	if err := os.WriteFile(filepath.Join(outDir, r.cfg.workload+".json"), append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return r.trace.writeChrome(filepath.Join(outDir, r.cfg.workload+".trace.json"))
}

// runSelfcheck runs the untraced set twice and compares every gated
// end-to-end metric of the second set against the first by the bound
// BENCHMARK.json gives it.
func runSelfcheck(base config, names []string, spec *benchSpec) int {
	sets := make([]map[string]map[string]float64, 2)
	failed := false
	for i := range sets {
		sets[i] = map[string]map[string]float64{}
		for _, name := range names {
			cfg := base
			cfg.workload = name
			r, err := runPass(cfg)
			if err != nil {
				fatalf("%s: %v", name, err)
			}
			if r.checks.failed > 0 {
				failed = true
				for _, f := range r.checks.msgs {
					fmt.Printf("# FAILED %s: %s\n", name, f)
				}
			}
			sets[i][name] = r.metrics
		}
	}
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			a, b := sets[0][name][m.Name], sets[1][name][m.Name]
			diff := (b - a) / a
			verdict := "ok"
			if math.Abs(diff) > m.Bound {
				verdict, failed = "DIFFERS", true
			}
			fmt.Printf("%-10s %-18s %14.6g %14.6g %-3s %+6.1f%% (bound %.0f%%)  %s\n",
				name, m.Name, a, b, m.Unit, 100*diff, 100*m.Bound, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}
