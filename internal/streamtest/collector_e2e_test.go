package streamtest

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/chaos"
	"github.com/asrank-go/asrank/internal/collector"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/stream"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// teeSink fans the collector's route stream out to the streaming engine
// and to an everything-heard recorder (the corpus a sink-less collector
// would keep), which is the independent batch reference. The collector
// serializes sink calls under its own lock, so ds needs none.
type teeSink struct {
	eng *stream.Engine
	ds  paths.Dataset
}

func (s *teeSink) Announce(collector string, vp uint32, prefix netip.Prefix, asns []uint32) {
	s.ds.Add(paths.Path{Collector: collector, Prefix: prefix, ASNs: asns})
	s.eng.Announce(collector, vp, prefix, asns)
}

func (s *teeSink) Withdraw(collector string, vp uint32, prefix netip.Prefix) {
	s.eng.Withdraw(collector, vp, prefix)
}

// TestCollectorToEngineThroughChaos closes the live loop under fire:
// a simulated collection replayed over real BGP sessions dialed
// through the fault injector (resets, short writes, corruption, delays)
// into a collector whose route sink is the streaming engine. Once the
// retries settle, the engine's committed epoch must be bit-identical
// to a batch run over the corpus the collector archived — the
// exactly-once resume protocol and the incremental fold composing to
// the same answer the offline pipeline computes.
func TestCollectorToEngineThroughChaos(t *testing.T) {
	p := topology.DefaultParams(91)
	p.ASes = 200
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(91)
	opts.NumVPs = 5
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	eng := stream.New(stream.Options{})
	tee := &teeSink{eng: eng}
	srv, err := collector.Listen("127.0.0.1:0", collector.Options{
		Registry: reg,
		Routes:   tee,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	inj := chaos.New(chaos.Options{
		Seed:           20130401,
		ResetProb:      0.06,
		ShortWriteProb: 0.06,
		CorruptProb:    0.06,
		DelayProb:      0.10,
		ChunkProb:      0.20,
		MaxDelay:       200 * time.Microsecond,
		FaultBudget:    32,
		Registry:       reg,
	})
	// Commit mid-flight epochs while routes are still arriving: the
	// engine must stay consistent under concurrent ingestion (the final
	// equality proves none of these partial epochs corrupted state).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			eng.Commit(context.Background())
			time.Sleep(5 * time.Millisecond)
		}
	}()

	if err := collector.ReplayAll(srv.Addr().String(), sim, collector.ReplayOptions{
		Timeout:    20 * time.Second,
		MaxRetries: 64,
		RetryBase:  time.Millisecond,
		RetryMax:   20 * time.Millisecond,
		Workers:    4,
		Dial:       inj.Dialer(nil),
		Registry:   reg,
	}); err != nil {
		t.Fatalf("chaos-dialed ReplayAll never settled: %v", err)
	}
	<-done
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if inj.FaultsInjected() == 0 {
		t.Error("chaos injector injected no faults; the test proved nothing")
	}

	inc := eng.Commit(context.Background())
	if n := srv.Corpus().NumPaths(); n != 0 {
		t.Errorf("collector with a caller sink retained %d paths, want 0", n)
	}
	res := core.Infer(&tee.ds, core.Options{Sanitize: true})
	if err := EquivCheck(inc, warehouse.FromResult(res)); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.RIBRoutes == 0 {
		t.Fatal("engine saw no routes; the sink was never wired")
	}
	t.Logf("settled equal: %d routes, %d distinct paths, %d faults injected, stats %+v",
		st.RIBRoutes, st.Entries, inj.FaultsInjected(), st)
}
