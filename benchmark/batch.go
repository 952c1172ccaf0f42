package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/asrank-go/asrank/internal/apiserver"
	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/validation"
	"github.com/asrank-go/asrank/internal/warehouse"
)

const (
	batchASes = 10000
	// minC2PPPV and minP2PPPV are the floors the positive predictive
	// values must clear against the generator's ground truth. Over 44
	// seeds at this size and 12 VPs, c2p measures 0.946–0.993 (mean
	// 0.974) and p2p 0.710–0.941 (mean 0.83: few VPs see few peering
	// links, and a mislabelled one weighs more). The floors sit six to
	// eight standard deviations below the means, so that they catch an
	// inference that broke and never a seed that drew a hard topology.
	minC2PPPV = 0.90
	minP2PPPV = 0.55
	// minBatchIterations keeps a short -seconds from reporting a median
	// of one or two runs.
	minBatchIterations = 3
)

// runBatch is the researcher's use, the asrank CLI: a closed loop of
// one caller turning a corpus file into a built serving snapshot, at
// the largest size the generator still renders with a sparse,
// heavy-tailed graph. paths, core and cone do nearly all the work;
// stream, collector and HTTP none.
func runBatch(cfg config, r *result) error {
	setup, su := time.Now(), &window{}
	su.calibrate()
	c, err := generate(cfg.seed, batchASes, su)
	if err != nil {
		return err
	}
	r.corpus = c.counts
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", outDir, err)
	}
	file := filepath.Join(outDir, fmt.Sprintf("batch-%d.paths", os.Getpid()))
	defer os.Remove(file)
	if err := writeCorpus(file, c.sim.Dataset); err != nil {
		return err
	}
	truth := c.topo.Links()
	nPaths := c.counts.Paths
	c = nil // the program sees the file only
	if err := r.setSetup(setup, su); err != nil {
		return err
	}

	// iteration is one measured run of the pipeline.
	type iteration struct {
		begin, end usage
		decomposed bool
	}
	var (
		iters     []iteration
		firstETag string
		keep      *apiserver.Data
		last      *core.Result
		kept      float64
	)
	win := &window{}
	deadline := time.Now().Add(cfg.seconds)
	for op := 0; op < minBatchIterations || time.Now().Before(deadline); op++ {
		win.calibrate()
		// The traced pass alternates the pipeline as the CLI calls it
		// with the same pipeline decomposed into its public stages.
		it := iteration{begin: readUsage(), decomposed: cfg.traced && op%2 == 1}
		var data *apiserver.Data
		var res *core.Result
		if it.decomposed {
			root := r.trace.start("batch.iteration", 0, op)
			data, res, kept, err = batchStaged(file, r.trace, root, op)
			r.trace.end(root)
		} else {
			data, res, err = batchWhole(file)
		}
		if err != nil {
			return err
		}
		it.end = readUsage()
		iters = append(iters, it)
		if op == 0 {
			firstETag = data.ETag()
		}
		r.checks.ok(data.ETag() == firstETag, "iteration %d (decomposed=%v) built ETag %s, the first built %s", op, it.decomposed, data.ETag(), firstETag)
		keep, last = data, res
	}
	win.calibrate()

	m := validation.Evaluate(last.Rels, truth)
	r.checks.ok(m.C2PPPV() >= minC2PPPV, "c2p PPV %.4f against ground truth is below %.2f", m.C2PPPV(), minC2PPPV)
	r.checks.ok(m.P2PPPV() >= minP2PPPV, "p2p PPV %.4f against ground truth is below %.2f", m.P2PPPV(), minP2PPPV)

	// The gated figures are those of the pipeline as the CLI calls it.
	var wall, cpu calibrated
	var staged, allocKB, mallocs []float64
	for _, it := range iters {
		d := ms(it.end.at.Sub(it.begin.at))
		if it.decomposed {
			staged = append(staged, d)
			continue
		}
		k := win.around(it.begin.at, it.end.at)
		c, a, n := it.end.since(it.begin)
		wall.add(d, k)
		cpu.add(c, k)
		allocKB = append(allocKB, a)
		mallocs = append(mallocs, n)
	}
	iter := median(wall.ms)
	if err := r.setOp(win, &wall, &cpu, median(allocKB)); err != nil {
		return err
	}
	r.set("batch_paths_per_s", float64(nPaths)/(iter/1000))
	r.set("batch_alloc_bytes_per_path", median(allocKB)*1024/float64(nPaths))
	r.set("core.links_labelled", float64(len(last.Rels)))
	r.set("core.c2p_ppv", m.C2PPPV())
	r.set("core.p2p_ppv", m.P2PPPV())
	r.note("batch: %d iterations (%d whole, %d decomposed), %d paths each", len(iters), len(wall.ms), len(staged), nPaths)

	if cfg.traced {
		batchConeProbe(r.trace, last)
		// A stage's metric is its span's name with the unit appended.
		for _, stage := range []string{
			"paths.read", "paths.sanitize",
			"core.index_rank", "core.clique", "core.poison_kept", "core.infer_indexed",
			"warehouse.from_result", "apiserver.build",
			"cone.relations", "cone.pp_credit", "cone.recursive",
		} {
			r.set(stage+"_ms", r.trace.medianMs(stage))
		}
		r.set("paths.kept_share", kept)
		r.set("batch.mallocs_per_path", median(mallocs)/float64(nPaths))
		r.set("batch.unattributed_ms", median(r.trace.perOp("batch.iteration", true)))
		r.set("batch.traced_overhead_pct", 100*(median(staged)-iter)/iter)
	}
	r.set("retained_heap_mb", retainedHeapMB(keep))
	return nil
}

func writeCorpus(file string, ds *paths.Dataset) error {
	f, err := os.Create(file)
	if err != nil {
		return fmt.Errorf("write corpus: %w", err)
	}
	if err := paths.Write(f, ds); err != nil {
		f.Close()
		return fmt.Errorf("write corpus: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write corpus: %w", err)
	}
	return nil
}

func readCorpus(file string) (*paths.Dataset, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, fmt.Errorf("read corpus: %w", err)
	}
	defer f.Close()
	ds, err := paths.Read(f)
	if err != nil {
		return nil, fmt.Errorf("read corpus: %w", err)
	}
	return ds, nil
}

// batchWhole is the pipeline as cmd/asrank and asrankd's ingest call it.
func batchWhole(file string) (*apiserver.Data, *core.Result, error) {
	ds, err := readCorpus(file)
	if err != nil {
		return nil, nil, err
	}
	res := core.Infer(ds, core.Options{Sanitize: true})
	return apiserver.BuildSnapshot(warehouse.FromResult(res)), res, nil
}

// batchStaged is the same pipeline through the public function of each
// stage, one span per stage: what core.Infer does inside, from outside.
// It also returns the share of raw paths sanitization kept.
func batchStaged(file string, tr *tracer, root spanRef, op int) (*apiserver.Data, *core.Result, float64, error) {
	var (
		raw, clean *paths.Dataset
		st         paths.SanitizeStats
		err        error
	)
	tr.time("paths.read", root, op, func() { raw, err = readCorpus(file) })
	if err != nil {
		return nil, nil, 0, err
	}
	tr.time("paths.sanitize", root, op, func() { clean, st = paths.Sanitize(raw, paths.SanitizeOptions{}) })

	ix := core.NewCorpusIndex()
	var rank, clique []uint32
	tr.time("core.index_rank", root, op, func() {
		for _, p := range clean.Paths {
			ix.AddPath(p.ASNs, 1)
		}
		rank = ix.Rank()
	})
	tr.time("core.clique", root, op, func() { clique = core.CliqueFromIndex(ix, rank, core.Options{}) })

	var keptDS *paths.Dataset
	tr.time("core.poison_kept", root, op, func() {
		keptDS = &paths.Dataset{Paths: make([]paths.Path, 0, len(clean.Paths))}
		inClique := make(map[uint32]bool, len(clique))
		for _, c := range clique {
			inClique[c] = true
		}
		for _, p := range clean.Paths {
			if core.Poisoned(p.ASNs, inClique) {
				continue
			}
			keptDS.Paths = append(keptDS.Paths, p)
			ix.AddKept(p.ASNs, 1)
		}
	})

	var res *core.Result
	tr.time("core.infer_indexed", root, op, func() {
		res = core.InferIndexed(context.Background(), ix, rank, clique, core.Options{})
		res.PoisonedPaths = len(clean.Paths) - len(keptDS.Paths)
		res.Dataset = keptDS
		res.SanitizeStats = st
	})

	var snap *warehouse.Snapshot
	tr.time("warehouse.from_result", root, op, func() { snap = warehouse.FromResult(res) })
	var data *apiserver.Data
	tr.time("apiserver.build", root, op, func() { data = apiserver.BuildSnapshot(snap) })
	return data, res, float64(st.Kept) / float64(max(1, st.Input)), nil
}

// batchConeProbe times the cone layer's public entry points on the last
// result, outside any iteration: relations indexing and the
// provider/peer-observed crediting (both run inside FromResult, where
// the benchmark cannot put a span) and the recursive closure (which the
// ascone CLI computes and the served pipeline does not).
func batchConeProbe(tr *tracer, res *core.Result) {
	for op := 0; op < 3; op++ {
		root := tr.start("batch.cone_probe", 0, op)
		var rels *cone.Relations
		tr.time("cone.relations", root, op, func() { rels = cone.NewRelations(res.Rels) })
		tr.time("cone.pp_credit", root, op, func() { runtime.KeepAlive(rels.ProviderPeerObservedBits(res.Dataset)) })
		tr.time("cone.recursive", root, op, func() { runtime.KeepAlive(rels.RecursiveBits()) })
		tr.end(root)
	}
}
