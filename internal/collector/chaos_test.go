package collector

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/chaos"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/paths"
)

// canonical renders a corpus in a session-order-independent form:
// announcements interleave differently across (possibly retried)
// sessions, so corpora are compared as sorted text.
func canonical(t *testing.T, ds *paths.Dataset) []byte {
	t.Helper()
	out := &paths.Dataset{Paths: append([]paths.Path(nil), ds.Paths...)}
	sort.Slice(out.Paths, func(i, j int) bool {
		a, b := out.Paths[i], out.Paths[j]
		if a.Prefix != b.Prefix {
			return a.Prefix.String() < b.Prefix.String()
		}
		for k := 0; k < len(a.ASNs) && k < len(b.ASNs); k++ {
			if a.ASNs[k] != b.ASNs[k] {
				return a.ASNs[k] < b.ASNs[k]
			}
		}
		return len(a.ASNs) < len(b.ASNs)
	})
	var buf bytes.Buffer
	if err := paths.Write(&buf, out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cleanCorpus replays res into a fresh collector with no faults and
// returns its canonical corpus, the reference a chaos run must match.
func cleanCorpus(t *testing.T, res *bgpsim.Result) []byte {
	t.Helper()
	reg := obs.NewRegistry()
	srv, err := Listen("127.0.0.1:0", Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplayAll(srv.Addr().String(), res, ReplayOptions{
		Timeout: 20 * time.Second, Registry: reg,
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	want := canonical(t, srv.Corpus())
	if len(want) == 0 {
		t.Fatal("clean run produced an empty corpus")
	}
	return want
}

// TestReplayAllThroughChaosByteIdentical is the acceptance test for
// resumable replay: a ReplayAll dialed through the chaos injector with
// resets, short writes, partial writes, and byte corruption enabled
// must — once retries settle — deliver a corpus byte-identical to the
// fault-free run, with the degradations visible in the obs counters.
func TestReplayAllThroughChaosByteIdentical(t *testing.T) {
	res := simResult(t, 73, 200, 5)
	want := cleanCorpus(t, res)

	// Chaos run: every session is dialed through the fault injector. The
	// bounded fault budget is what guarantees convergence — once spent,
	// sessions run clean and the retries settle.
	reg := obs.NewRegistry()
	srv, err := Listen("127.0.0.1:0", Options{Registry: reg, Logf: t.Logf})
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
	err = ReplayAll(srv.Addr().String(), res, ReplayOptions{
		Timeout:    20 * time.Second,
		MaxRetries: 64,
		RetryBase:  time.Millisecond,
		RetryMax:   20 * time.Millisecond,
		Workers:    4,
		Dial:       inj.Dialer(nil),
		Registry:   reg,
	})
	if err != nil {
		t.Fatalf("chaos-dialed ReplayAll never settled: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	got := canonical(t, srv.Corpus())
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos corpus differs from clean corpus: %d vs %d bytes (%d vs %d paths)",
			len(got), len(want), srv.Corpus().NumPaths(), res.Dataset.NumPaths())
	}

	// The run must actually have hurt: faults injected, retries taken,
	// resumes used — all auditable in the registry.
	if inj.FaultsInjected() == 0 {
		t.Error("chaos injector injected no faults; the test proved nothing")
	}
	retries := reg.Counter("asrank_replay_retries_total", "").Value()
	if retries == 0 {
		t.Error("no replay retries despite injected faults")
	}
	t.Logf("chaos run settled: %d faults injected, %d retries, %d updates resumed",
		inj.FaultsInjected(), retries,
		reg.Counter("asrank_replay_updates_resumed_total", "").Value())
}

// TestEachDestructiveFaultSettles replays through the dialer with one
// destructive fault kind at a time, so each kind is proven to fire and
// to leave the collector's record a prefix the retry resumes from: the
// settled corpus is byte-identical to a fault-free run.
func TestEachDestructiveFaultSettles(t *testing.T) {
	res := simResult(t, 75, 120, 4)
	want := cleanCorpus(t, res)

	for _, kind := range []chaos.FaultKind{chaos.FaultReset, chaos.FaultShortWrite, chaos.FaultCorrupt, chaos.FaultStall} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := chaos.Options{Seed: 20130401, StallTime: 20 * time.Millisecond, FaultBudget: 6}
			switch kind {
			case chaos.FaultReset:
				opts.ResetProb = 0.2
			case chaos.FaultShortWrite:
				opts.ShortWriteProb = 0.2
			case chaos.FaultCorrupt:
				opts.CorruptProb = 0.2
			case chaos.FaultStall:
				opts.StallProb = 0.2
			}
			reg := obs.NewRegistry()
			opts.Registry = reg
			inj := chaos.New(opts)
			srv, err := Listen("127.0.0.1:0", Options{Registry: reg, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			err = ReplayAll(srv.Addr().String(), res, ReplayOptions{
				Timeout:    20 * time.Second,
				MaxRetries: 64,
				RetryBase:  time.Millisecond,
				RetryMax:   20 * time.Millisecond,
				Workers:    4,
				Dial:       inj.Dialer(nil),
				Registry:   reg,
			})
			if err != nil {
				t.Fatalf("ReplayAll never settled: %v", err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if got := canonical(t, srv.Corpus()); !bytes.Equal(got, want) {
				t.Fatalf("corpus differs from the clean run: %d vs %d bytes", len(got), len(want))
			}
			fired := reg.CounterVec("asrank_chaos_faults_total", "", "kind").With(kind.String()).Value()
			if fired == 0 {
				t.Errorf("asrank_chaos_faults_total{kind=%q} never moved", kind)
			}
			t.Logf("%s: %d fired, %d retries", kind, fired,
				reg.Counter("asrank_replay_retries_total", "").Value())
		})
	}
}

// TestReplayAllReportsEveryFailedVP pins the joined-error contract:
// when the collector is unreachable, every VP's failure is in the
// error, not just the first.
func TestReplayAllReportsEveryFailedVP(t *testing.T) {
	res := simResult(t, 74, 120, 4)
	// A listener that is immediately closed: connection refused for all.
	srv, err := Listen("127.0.0.1:0", Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	srv.Close()

	err = ReplayAll(addr, res, ReplayOptions{
		Timeout: 2 * time.Second, MaxRetries: -1, Registry: obs.NewRegistry(),
	})
	if err == nil {
		t.Fatal("ReplayAll succeeded against a closed collector")
	}
	for _, vp := range res.VPs {
		want := fmt.Sprintf("AS%d", vp)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error does not mention failed VP %s", want)
		}
	}
}
