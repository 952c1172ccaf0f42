package collector

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/bgp"
	"github.com/asrank-go/asrank/internal/obs"
)

// handshake dials the collector and completes session establishment,
// returning the connection and a reader positioned after the OPEN +
// KEEPALIVE exchange, plus the resume offset the collector advertised.
func handshake(t *testing.T, addr string, asn uint32) (net.Conn, *bufio.Reader, int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)

	open, err := bgp.EncodeOpen(&bgp.Open{ASN: asn, HoldTime: 90, BGPID: netip.MustParseAddr("10.0.0.9")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(open); err != nil {
		t.Fatal(err)
	}
	msg, err := bgp.ReadMessage(br)
	if err != nil {
		t.Fatalf("reading collector OPEN: %v", err)
	}
	peerOpen, err := bgp.ParseOpen(msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(bgp.EncodeKeepalive()); err != nil {
		t.Fatal(err)
	}
	if _, err := bgp.ReadMessage(br); err != nil {
		t.Fatalf("reading collector KEEPALIVE: %v", err)
	}
	return conn, br, resumeOffset(peerOpen)
}

// validUpdate encodes a well-formed single-prefix UPDATE from asn.
func validUpdate(t *testing.T, asn uint32) []byte {
	t.Helper()
	msg, err := bgp.EncodeUpdate(&bgp.Update{
		NLRI: []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")},
		Attrs: bgp.PathAttributes{
			Origin:  bgp.OriginIGP,
			ASPath:  bgp.Sequence(asn, 64500),
			NextHop: netip.MustParseAddr("10.0.0.9"),
		},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// malformedUpdate builds a correctly framed UPDATE whose body cannot
// parse (an attribute length pointing past the end).
func malformedUpdate(t *testing.T) []byte {
	t.Helper()
	body := []byte{0x00, 0x00, 0xff, 0xff} // wlen=0, alen=0xffff with no bytes behind it
	msg, err := bgp.AppendHeader(nil, bgp.MsgUpdate, len(body))
	if err != nil {
		t.Fatal(err)
	}
	msg = append(msg, body...)
	if _, perr := bgp.ParseUpdate(msg, true); perr == nil {
		t.Fatal("test fixture unexpectedly parses")
	}
	return msg
}

func counter(t *testing.T, reg *obs.Registry, name string, labels ...string) uint64 {
	t.Helper()
	if len(labels) == 0 {
		return reg.Counter(name, "").Value()
	}
	return reg.CounterVec(name, "", "result").With(labels...).Value()
}

func TestMalformedUpdatePolicy(t *testing.T) {
	cases := []struct {
		name          string
		policy        MalformedPolicy
		wantRecorded  uint64 // valid UPDATE sent after the malformed one
		wantSkipped   uint64
		wantTeardown  uint64
		wantPaths     int
		wantSessionOK bool
	}{
		{
			name:   "skip keeps the session and the later update",
			policy: MalformedSkip, wantRecorded: 1, wantSkipped: 1, wantPaths: 1, wantSessionOK: true,
		},
		{
			name:   "teardown kills the session before the later update",
			policy: MalformedTeardown, wantTeardown: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			srv, err := Listen("127.0.0.1:0", Options{Malformed: tc.policy, Registry: reg, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			const asn = 65001
			conn, br, _ := handshake(t, srv.Addr().String(), asn)
			conn.Write(malformedUpdate(t))  //nolint:errcheck
			conn.Write(validUpdate(t, asn)) //nolint:errcheck
			if tc.wantSessionOK {
				// Orderly teardown must still work after the skip.
				var expect [4]byte
				binary.BigEndian.PutUint32(expect[:], 2)
				cease, _ := bgp.EncodeNotificationData(bgp.NotifCease, 0, expect[:])
				if _, err := conn.Write(cease); err != nil {
					t.Fatalf("session did not survive the skipped update: %v", err)
				}
				ack, err := bgp.ReadMessage(br)
				if err != nil {
					t.Fatalf("no teardown ack after skip: %v", err)
				}
				_, body, _ := bgp.ParseHeader(ack)
				_, _, data, err := bgp.ParseNotificationBody(body)
				if err != nil || len(data) < 4 {
					t.Fatalf("bad teardown ack: %v", err)
				}
				// Both the skipped and the recorded update count as
				// consumed: the skip is a deliberate, non-retried loss.
				if got := binary.BigEndian.Uint32(data); got != 2 {
					t.Errorf("ack count = %d, want 2 (skipped + recorded)", got)
				}
			}
			conn.Close()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}

			if got := counter(t, reg, "asrank_collector_updates_total", "recorded"); got != tc.wantRecorded {
				t.Errorf("recorded = %d, want %d", got, tc.wantRecorded)
			}
			if got := counter(t, reg, "asrank_collector_updates_total", "malformed_skipped"); got != tc.wantSkipped {
				t.Errorf("malformed_skipped = %d, want %d", got, tc.wantSkipped)
			}
			if got := counter(t, reg, "asrank_collector_updates_total", "malformed_teardown"); got != tc.wantTeardown {
				t.Errorf("malformed_teardown = %d, want %d", got, tc.wantTeardown)
			}
			if got := srv.Corpus().NumPaths(); got != tc.wantPaths {
				t.Errorf("corpus holds %d paths, want %d", got, tc.wantPaths)
			}
			wantOK, wantErr := uint64(0), uint64(1)
			if tc.wantSessionOK {
				wantOK, wantErr = 1, 0
			}
			if got := counter(t, reg, "asrank_collector_sessions_total", "ok"); got != wantOK {
				t.Errorf("sessions ok = %d, want %d", got, wantOK)
			}
			if got := counter(t, reg, "asrank_collector_sessions_total", "error"); got != wantErr {
				t.Errorf("sessions error = %d, want %d", got, wantErr)
			}
		})
	}
}

func TestHoldTimerExpiry(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := Listen("127.0.0.1:0", Options{HoldTime: 1, Registry: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	conn, _, _ := handshake(t, srv.Addr().String(), 65002)
	// Go silent: no keepalives. The collector must expire the hold
	// timer and close the session rather than hang forever.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("collector never dropped the stalled session")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("hold-timer teardown took %v for a 1s hold time", waited)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := counter(t, reg, "asrank_collector_sessions_total", "holdtime_expired"); got != 1 {
		t.Errorf("holdtime_expired sessions = %d, want 1", got)
	}
}

func TestKeepaliveRefreshesHoldTimer(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := Listen("127.0.0.1:0", Options{HoldTime: 1, Registry: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	conn, br, _ := handshake(t, srv.Addr().String(), 65003)
	// Keepalives every 300ms must hold a 1s session open well past 1s.
	deadline := time.Now().Add(2500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := conn.Write(bgp.EncodeKeepalive()); err != nil {
			t.Fatalf("session died despite keepalives: %v", err)
		}
		time.Sleep(300 * time.Millisecond)
	}
	cease, _ := bgp.EncodeNotificationData(bgp.NotifCease, 0, []byte{0, 0, 0, 0})
	if _, err := conn.Write(cease); err != nil {
		t.Fatal(err)
	}
	if _, err := bgp.ReadMessage(br); err != nil {
		t.Fatalf("no teardown ack: %v", err)
	}
	conn.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := counter(t, reg, "asrank_collector_sessions_total", "holdtime_expired"); got != 0 {
		t.Errorf("holdtime_expired = %d for a kept-alive session", got)
	}
	if got := counter(t, reg, "asrank_collector_sessions_total", "ok"); got != 1 {
		t.Errorf("sessions ok = %d, want 1", got)
	}
}

func TestMidUpdateConnectionReset(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := Listen("127.0.0.1:0", Options{Registry: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	const asn = 65004
	conn, _, _ := handshake(t, srv.Addr().String(), asn)
	// First a whole valid update, then half of one, then vanish.
	whole := validUpdate(t, asn)
	if _, err := conn.Write(whole); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(whole[:len(whole)/2]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := srv.Close(); err != nil { // waits for the session goroutine
		t.Fatal(err)
	}

	// The completed update survives; the torn one is not half-recorded.
	if got := srv.Corpus().NumPaths(); got != 1 {
		t.Errorf("corpus holds %d paths, want exactly the pre-reset update's 1", got)
	}
	if got := counter(t, reg, "asrank_collector_updates_total", "recorded"); got != 1 {
		t.Errorf("recorded = %d, want 1", got)
	}
	if got := counter(t, reg, "asrank_collector_sessions_total", "error"); got != 1 {
		t.Errorf("sessions error = %d, want 1", got)
	}
	// And the resume offset points exactly past the completed update.
	if got := srv.ResumeOffset(asn); got != 1 {
		t.Errorf("resume offset = %d, want 1", got)
	}
}

// flakyListener fails its first n Accepts with a transient error.
type flakyListener struct {
	net.Listener
	fails atomic.Int32
}

var errFlaky = errors.New("transient accept failure")

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, errFlaky
	}
	return l.Listener.Accept()
}

func TestAcceptLoopRetriesTransientErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln}
	fl.fails.Store(3)
	reg := obs.NewRegistry()
	srv := Serve(fl, Options{Registry: reg, Logf: t.Logf})

	// The server must survive the three failures and still establish a
	// session afterwards (before this change, one transient error
	// silently killed the whole collector).
	conn, br, _ := handshake(t, srv.Addr().String(), 65005)
	cease, _ := bgp.EncodeNotificationData(bgp.NotifCease, 0, []byte{0, 0, 0, 0})
	if _, err := conn.Write(cease); err != nil {
		t.Fatal(err)
	}
	if _, err := bgp.ReadMessage(br); err != nil {
		t.Fatalf("no teardown ack: %v", err)
	}
	conn.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := counter(t, reg, "asrank_collector_accept_retries_total"); got != 3 {
		t.Errorf("accept retries = %d, want 3", got)
	}
	if got := counter(t, reg, "asrank_collector_sessions_total", "ok"); got != 1 {
		t.Errorf("sessions ok = %d, want 1", got)
	}
}

// countingSink tallies the route stream a caller-supplied sink sees.
type countingSink struct{ announces, withdraws atomic.Int32 }

func (c *countingSink) Announce(string, uint32, netip.Prefix, []uint32) { c.announces.Add(1) }
func (c *countingSink) Withdraw(string, uint32, netip.Prefix)           { c.withdraws.Add(1) }

// TestCallerSinkIsTheOnlyConsumer: a collector handed a RouteSink keeps
// no corpus of its own, so churn on one prefix — the steady state of a
// real table — grows nothing inside the server while every event still
// reaches the sink exactly once.
func TestCallerSinkIsTheOnlyConsumer(t *testing.T) {
	const asn, rounds = 65006, 20
	sink := &countingSink{}
	srv, err := Listen("127.0.0.1:0", Options{Routes: sink, Registry: obs.NewRegistry(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	conn, br, _ := handshake(t, srv.Addr().String(), asn)
	withdraw, err := bgp.EncodeUpdate(&bgp.Update{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if _, err := conn.Write(validUpdate(t, asn)); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(withdraw); err != nil {
			t.Fatal(err)
		}
	}
	cease, _ := bgp.EncodeNotificationData(bgp.NotifCease, 0, []byte{0, 0, 0, 0})
	if _, err := conn.Write(cease); err != nil {
		t.Fatal(err)
	}
	if _, err := bgp.ReadMessage(br); err != nil {
		t.Fatalf("no teardown ack: %v", err)
	}
	conn.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if a, w := sink.announces.Load(), sink.withdraws.Load(); a != rounds || w != rounds {
		t.Errorf("sink saw %d announces and %d withdraws, want %d of each", a, w, rounds)
	}
	if got := srv.Corpus().NumPaths(); got != 0 {
		t.Errorf("collector with a caller sink retained %d paths, want 0", got)
	}
	if got := srv.ResumeOffset(asn); got != 2*rounds {
		t.Errorf("resume offset = %d, want %d", got, 2*rounds)
	}
}
