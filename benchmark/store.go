package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/asrank-go/asrank/internal/apiserver"
	"github.com/asrank-go/asrank/internal/warehouse"
)

const (
	storeASes = 5000
	// storeEpochs crosses three checkpoint boundaries of the warehouse's
	// default cadence: epochs 16, 32 and 48 are stored full.
	storeEpochs = 49
	// Per chain, after the cold reopen: random snapshot decodes and
	// history queries against what was just written.
	storeDecodes    = 20
	storeASNQueries = 200
	storeDiffs      = 20
	// minStoreChains keeps a short -seconds from reporting one chain.
	minStoreChains = 2
)

// chainLog is what writing and reading back one chain took.
type chainLog struct {
	begin, end            usage
	appendFull, appendDel []float64 // ms per Append, by segment kind
	fullBytes, deltaBytes []float64
	deltaBytesPerAS       []float64
	open                  float64 // ms, the cold reopen
	decode, diff          []float64
	asnUS                 []float64 // µs per History.ASN
	bytes, asEpochs       int64
}

// runStore is the only workload where the warehouse's encode, fsync
// and decode are most of the time: a closed loop of one caller writing
// a 49-epoch chain of 1 %-churn snapshots to a fresh store and reading
// it back, so an encode win that costs reopen or delta replay shows.
func runStore(cfg config, r *result) error {
	setup, su := time.Now(), &window{}
	su.calibrate()
	c, err := generate(cfg.seed, storeASes, su)
	if err != nil {
		return err
	}
	r.corpus = c.counts
	snaps, etags, err := epochSeries(c, cfg.seed, storeEpochs, su)
	if err != nil {
		return err
	}
	c = nil
	root := filepath.Join(outDir, fmt.Sprintf("store-%d.wh", os.Getpid()))
	defer os.RemoveAll(root)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := r.setSetup(setup, su); err != nil {
		return err
	}

	var (
		chains        []chainLog
		plain, traced []float64 // ms per Append, by whether the chain was traced
		last          *warehouse.Store
		rng           = newLCG(cfg.seed, 0)
	)
	win := &window{}
	deadline := time.Now().Add(cfg.seconds)
	for op := 0; op < minStoreChains || time.Now().Before(deadline); op++ {
		win.calibrate()
		r.trace.pause(op%2 == 0)
		dir := filepath.Join(root, strconv.Itoa(op))
		cl, st, err := storeChain(dir, snaps, etags, &rng, r.trace, op)
		if err != nil {
			return err
		}
		chains = append(chains, cl)
		side := &plain
		if cfg.traced && op%2 == 1 {
			side = &traced
		}
		*side = append(append(*side, cl.appendFull...), cl.appendDel...)
		if last != nil {
			if err := os.RemoveAll(last.Dir()); err != nil {
				return fmt.Errorf("store: %w", err)
			}
		}
		last = st
	}
	win.calibrate()
	r.trace.pause(false)

	// Every epoch of the reopened chain must rebuild the ETag it was
	// appended with.
	var buildDecoded []float64
	okTags := 0
	for id := range etags {
		snap, err := last.Snapshot(uint32(id))
		if err != nil {
			r.checks.ok(false, "reopened epoch %d: %v", id, err)
			continue
		}
		t0 := time.Now()
		got := apiserver.BuildSnapshot(snap).ETag()
		buildDecoded = append(buildDecoded, ms(time.Since(t0)))
		if r.checks.ok(got == etags[id], "reopened epoch %d rebuilds ETag %s, appended with %s", id, got, etags[id]) {
			okTags++
		}
	}
	snaps = nil

	var all chainLog
	var wall, cpu calibrated
	var allocKB, opens []float64
	for _, cl := range chains {
		k := win.around(cl.begin.at, cl.end.at)
		c, a, _ := cl.end.since(cl.begin)
		wall.add(ms(cl.end.at.Sub(cl.begin.at)), k)
		cpu.add(c, k)
		allocKB = append(allocKB, a)
		opens = append(opens, cl.open)
		all.appendFull = append(all.appendFull, cl.appendFull...)
		all.appendDel = append(all.appendDel, cl.appendDel...)
		all.decode = append(all.decode, cl.decode...)
		all.diff = append(all.diff, cl.diff...)
		all.asnUS = append(all.asnUS, cl.asnUS...)
	}
	one := chains[0] // sizes are a function of the input, the same in every chain
	appends := append(append([]float64(nil), all.appendFull...), all.appendDel...)
	if err := r.setOp(win, &wall, &cpu, median(allocKB)); err != nil {
		return err
	}
	r.set("store_append_p50_ms", median(appends))
	r.set("store_reopen_ms", median(opens))
	r.set("store_bytes_per_as_epoch", float64(one.bytes)/float64(one.asEpochs))
	r.note("store: %d chains of %d epochs: %d appends, %d reopens, %d decodes, %d history and %d diff queries",
		len(chains), storeEpochs, len(appends), len(opens), len(all.decode), len(all.asnUS), len(all.diff))

	if cfg.traced {
		fullMean := 0.0
		for _, b := range one.fullBytes {
			fullMean += b / float64(len(one.fullBytes))
		}
		r.set("warehouse.append_full_ms", median(all.appendFull))
		r.set("warehouse.append_delta_p50_ms", median(all.appendDel))
		r.set("warehouse.append_delta_p90_ms", pctl(all.appendDel, 0.90))
		r.set("warehouse.full_bytes", median(one.fullBytes))
		r.set("warehouse.delta_bytes_p50", median(one.deltaBytes))
		r.set("warehouse.bytes_per_as_delta", median(one.deltaBytesPerAS))
		r.set("warehouse.ratio_vs_full", float64(one.bytes)/(fullMean*storeEpochs))
		r.set("warehouse.open_ms", median(opens))
		r.set("warehouse.snapshot_decode_p50_ms", median(all.decode))
		r.set("warehouse.snapshot_decode_p90_ms", pctl(all.decode, 0.90))
		r.set("warehouse.history_asn_p50_us", median(all.asnUS))
		r.set("warehouse.diff_p50_ms", median(all.diff))
		r.set("warehouse.roundtrip_etag_ok", float64(okTags)/float64(len(etags)))
		r.set("apiserver.build_decoded_ms", median(buildDecoded))
		r.set("store.traced_overhead_pct", 100*(median(traced)-median(plain))/median(plain))
	}
	r.set("retained_heap_mb", retainedHeapMB(last))
	return nil
}

// storeChain writes the epoch series to a fresh store at dir, reopens
// it cold, and reads it back. It returns the reopened store.
func storeChain(dir string, snaps []*warehouse.Snapshot, etags []string, rng *lcg, tr *tracer, op int) (chainLog, *warehouse.Store, error) {
	cl := chainLog{begin: readUsage()}
	root := tr.start("store.chain", 0, op)
	st, err := warehouse.Open(dir, warehouse.Options{})
	if err != nil {
		return cl, nil, fmt.Errorf("store: open fresh: %w", err)
	}
	for i, snap := range snaps {
		sp := tr.start("warehouse.append", root, op)
		a0 := time.Now()
		info, err := st.Append(snap, "epoch-"+strconv.Itoa(i), etags[i])
		d := ms(time.Since(a0))
		tr.end(sp)
		if err != nil {
			return cl, nil, fmt.Errorf("store: append epoch %d: %w", i, err)
		}
		cl.bytes += info.Bytes
		cl.asEpochs += int64(info.ASes)
		if info.Kind == "full" {
			cl.appendFull = append(cl.appendFull, d)
			cl.fullBytes = append(cl.fullBytes, float64(info.Bytes))
		} else {
			cl.appendDel = append(cl.appendDel, d)
			cl.deltaBytes = append(cl.deltaBytes, float64(info.Bytes))
			cl.deltaBytesPerAS = append(cl.deltaBytesPerAS, float64(info.Bytes)/float64(info.ASes))
		}
	}

	sp := tr.start("warehouse.open", root, op)
	o0 := time.Now()
	reopened, err := warehouse.Open(dir, warehouse.Options{})
	cl.open = ms(time.Since(o0))
	tr.end(sp)
	if err != nil {
		return cl, nil, fmt.Errorf("store: reopen: %w", err)
	}
	if reopened.Len() != len(snaps) {
		return cl, nil, fmt.Errorf("store: reopened %d epochs, appended %d", reopened.Len(), len(snaps))
	}

	asns := snaps[len(snaps)-1].ASNs
	for i := 0; i < storeDecodes; i++ {
		id := uint32(rng.intn(len(snaps)))
		sp := tr.start("warehouse.snapshot", root, op)
		d0 := time.Now()
		_, err := reopened.Snapshot(id)
		cl.decode = append(cl.decode, ms(time.Since(d0)))
		tr.end(sp)
		if err != nil {
			return cl, nil, fmt.Errorf("store: decode epoch %d: %w", id, err)
		}
	}
	h := reopened.History()
	sp = tr.start("warehouse.history_asn", root, op)
	for i := 0; i < storeASNQueries; i++ {
		asn := asns[rng.intn(len(asns))]
		q0 := time.Now()
		traj := h.ASN(asn)
		cl.asnUS = append(cl.asnUS, float64(time.Since(q0))/float64(time.Microsecond))
		if len(traj) != len(snaps) {
			return cl, nil, fmt.Errorf("store: history of AS%d spans %d epochs, want %d", asn, len(traj), len(snaps))
		}
	}
	tr.end(sp)
	sp = tr.start("warehouse.history_diff", root, op)
	for i := 0; i < storeDiffs; i++ {
		from := rng.intn(len(snaps) - 1)
		to := from + 1 + rng.intn(len(snaps)-1-from)
		q0 := time.Now()
		_, err := h.Diff(uint32(from), uint32(to))
		cl.diff = append(cl.diff, ms(time.Since(q0)))
		if err != nil {
			return cl, nil, fmt.Errorf("store: diff %d..%d: %w", from, to, err)
		}
	}
	tr.end(sp)
	tr.end(root)
	cl.end = readUsage()
	return cl, reopened, nil
}
