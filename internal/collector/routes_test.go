package collector

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"github.com/asrank-go/asrank/internal/bgp"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/oplog"
	"github.com/asrank-go/asrank/internal/stream"
)

// runSession plays msgs over one session from asn, ends it with an
// acknowledged CEASE and closes the server.
func runSession(t *testing.T, srv *Server, asn uint32, msgs ...[]byte) {
	t.Helper()
	conn, br, _ := handshake(t, srv.Addr().String(), asn)
	cease, _ := bgp.EncodeNotificationData(bgp.NotifCease, 0, []byte{0, 0, 0, 0})
	for _, msg := range append(msgs, cease) {
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bgp.ReadMessage(br); err != nil {
		t.Fatalf("no teardown ack: %v", err)
	}
	conn.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func update(t *testing.T, path bgp.ASPath, nlri ...string) []byte {
	t.Helper()
	upd := &bgp.Update{Attrs: bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: path, NextHop: netip.MustParseAddr("10.0.0.9")}}
	for _, p := range nlri {
		upd.NLRI = append(upd.NLRI, netip.MustParsePrefix(p))
	}
	msg, err := bgp.EncodeUpdate(upd, true)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// TestUnusablePathReplacesTheRoute: a session announces P and Q via a
// clean path, then re-announces P with an AS_SET path. BGP says the
// second announcement replaces the first, so P's route is gone — from
// the default corpus and from a streaming engine behind the sink seam.
func TestUnusablePathReplacesTheRoute(t *testing.T) {
	const asn = 3007 // public ASNs throughout: the engine sanitizes
	msgs := [][]byte{
		update(t, bgp.Sequence(asn, 3356, 174), "192.0.2.0/24", "198.51.100.0/24"),
		update(t, bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint32{asn, 3356}}, {Type: bgp.ASSet, ASNs: []uint32{174, 175}}}, "192.0.2.0/24"),
	}
	t.Run("default corpus", func(t *testing.T) {
		srv, err := Listen("127.0.0.1:0", Options{Registry: obs.NewRegistry(), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		runSession(t, srv, asn, msgs...)
		got := srv.Corpus()
		if got.NumPaths() != 1 || got.Paths[0].Prefix != netip.MustParsePrefix("198.51.100.0/24") {
			t.Errorf("corpus = %+v, want the route to 198.51.100.0/24 alone", got.Paths)
		}
	})
	t.Run("engine", func(t *testing.T) {
		eng := stream.New(stream.Options{})
		srv, err := Listen("127.0.0.1:0", Options{Routes: eng, Registry: obs.NewRegistry(), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		runSession(t, srv, asn, msgs...)
		if st := eng.Stats(); st.Entries != 1 || st.RIBRoutes != 2 {
			t.Errorf("engine holds %d rows over %d routes, want 1 row and the dropped slot beside it", st.Entries, st.RIBRoutes)
		}
	})
}

// TestDefaultCorpusIsBoundedByLiveRoutes: churn on one route — the
// steady state of a real table — leaves one path in the default corpus,
// and a withdrawn route comes back as one.
func TestDefaultCorpusIsBoundedByLiveRoutes(t *testing.T) {
	const asn, rounds = 65008, 20
	srv, err := Listen("127.0.0.1:0", Options{Registry: obs.NewRegistry(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	withdraw, err := bgp.EncodeUpdate(&bgp.Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")}}, true)
	if err != nil {
		t.Fatal(err)
	}
	var msgs [][]byte
	for i := 0; i < rounds; i++ {
		msgs = append(msgs, update(t, bgp.Sequence(asn, uint32(64500+i%2), 64510), "192.0.2.0/24"))
	}
	runSession(t, srv, asn, append(msgs, withdraw, validUpdate(t, asn))...)
	if got := srv.Corpus(); got.NumPaths() != 1 || got.Paths[0].ASNs[1] != 64500 || len(got.Paths[0].ASNs) != 2 {
		t.Errorf("after %d re-announcements and a withdraw–re-announce the corpus is %+v, want the last route alone", rounds, got.Paths)
	}
}

// TestLifecycleIsReportedOnce: session up, session end and a skipped
// malformed UPDATE reach a server's journal, or its Logf when it has
// none — never both, which printed every moment twice wherever the
// journal tees to the same log.
func TestLifecycleIsReportedOnce(t *testing.T) {
	for _, journaled := range []bool{true, false} {
		t.Run(fmt.Sprintf("journal=%v", journaled), func(t *testing.T) {
			var (
				mu    sync.Mutex
				lines []string
			)
			logf := func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				lines = append(lines, fmt.Sprintf(format, args...))
			}
			opts := Options{Registry: obs.NewRegistry(), Logf: logf, Malformed: MalformedSkip}
			if journaled {
				opts.Journal = oplog.New(oplog.Options{Logf: logf})
			}
			srv, err := Listen("127.0.0.1:0", opts)
			if err != nil {
				t.Fatal(err)
			}
			runSession(t, srv, 65009, malformedUpdate(t), validUpdate(t, 65009))
			mu.Lock()
			defer mu.Unlock()
			for _, moment := range []string{"collector.session_up", "collector.update_malformed", "collector.session_end"} {
				n := 0
				for _, l := range lines {
					if strings.Contains(l, moment) {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s printed %d times, want once; log:\n%s", moment, n, strings.Join(lines, "\n"))
				}
			}
			if len(lines) != 3 {
				t.Errorf("log has %d lines for three moments:\n%s", len(lines), strings.Join(lines, "\n"))
			}
		})
	}
}
