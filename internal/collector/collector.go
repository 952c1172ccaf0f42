// Package collector implements a miniature BGP route collector — the
// kind of infrastructure (Route Views, RIPE RIS) whose archives the
// paper's inference consumes. The Server accepts BGP sessions over TCP,
// negotiates the four-byte-AS capability, keeps the route table its
// sessions converge to (paths.RIB) as a corpus, and optionally archives
// the raw messages as BGP4MP MRT records. The Replay client (replay.go)
// plays a simulated collection into it, closing the loop: simulator →
// BGP over TCP → collector → MRT → inference.
//
// The server is hardened against the faults internal/chaos injects:
// transient Accept errors are retried with capped backoff, malformed
// UPDATEs follow a configurable policy (tear the session down per RFC
// 4271, or skip-and-count in the treat-as-withdraw spirit of RFC 7606),
// and every session advertises a resume offset (bgp.CapResumeOffset)
// plus a counted teardown ack so a replaying speaker can retry a killed
// session without duplicating or losing a single prefix; a peer's newer
// session supersedes its older one, so only one consumes at a time.
// Every degradation is counted through internal/obs.
package collector

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/asrank-go/asrank/internal/bgp"
	"github.com/asrank-go/asrank/internal/mrt"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/oplog"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/trace"
)

// MalformedPolicy selects what a session does with an UPDATE that
// fails to parse.
type MalformedPolicy int

const (
	// MalformedTeardown resets the session (RFC 4271's classic
	// behavior). The update is not counted as consumed, so a resuming
	// speaker re-sends it — the policy for byte-exact recovery.
	MalformedTeardown MalformedPolicy = iota
	// MalformedSkip drops the unparseable UPDATE, counts it, and keeps
	// the session up — the RFC 7606 treat-as-withdraw spirit: one
	// update's routes are lost (auditable in the run report) instead of
	// a whole vantage point's table. Skipped updates count as consumed
	// for resume purposes; their loss is deliberate, not retried.
	MalformedSkip
)

func (p MalformedPolicy) String() string {
	switch p {
	case MalformedTeardown:
		return "teardown"
	case MalformedSkip:
		return "skip"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseMalformedPolicy parses the CLI rendering of a policy.
func ParseMalformedPolicy(s string) (MalformedPolicy, error) {
	switch s {
	case "teardown":
		return MalformedTeardown, nil
	case "skip":
		return MalformedSkip, nil
	}
	return 0, fmt.Errorf("collector: unknown malformed-update policy %q (want teardown or skip)", s)
}

// RouteSink receives the collector's live route stream: one Withdraw
// per withdrawn prefix and one Announce per NLRI prefix, in the order
// the session consumed them (withdrawals of an UPDATE before its
// announcements, per BGP semantics). vp is the announcing peer's ASN;
// asns is what paths.WireHops makes of the AS path — exactly the row the
// batch corpus records, or nil for a path it cannot use, which still
// replaces vp's previous route to the prefix. Callbacks run on
// session goroutines under the server's exactly-once consumed
// accounting: a route a resuming speaker re-sends after a torn session
// is never delivered twice, and a skipped malformed UPDATE (counted as
// consumed) delivers nothing. They run one at a time, under the lock
// that accounting takes, so only a sink shared between servers needs a
// lock of its own; none may call back into the Server.
type RouteSink interface {
	Announce(collector string, vp uint32, prefix netip.Prefix, asns []uint32)
	Withdraw(collector string, vp uint32, prefix netip.Prefix)
}

// Options configures a collector.
type Options struct {
	// LocalAS is the collector's AS number (default 64497).
	LocalAS uint32
	// HoldTime in seconds governs the session read deadline (default 90).
	HoldTime uint16
	// Archive, when non-nil, receives every UPDATE as a BGP4MP
	// MESSAGE_AS4 MRT record. Writes are serialized by the server.
	Archive io.Writer
	// Collector names the corpus entries (default "collector").
	Collector string
	// Malformed selects the malformed-UPDATE policy (default
	// MalformedTeardown).
	Malformed MalformedPolicy
	// Routes receives the live route stream — the seam the streaming
	// inference engine ingests from. It is the stream's only consumer:
	// nil selects the paths.RIB behind Server.Corpus, whose state is
	// bounded by the live routes however long the table churns, and a
	// server handed a sink keeps no paths of its own.
	Routes RouteSink
	// Registry receives the degradation counters (default obs.Default()).
	Registry *obs.Registry
	// Tracer, when non-nil, records a "collector.session" span per BGP
	// session (peer ASN, updates consumed, malformed events).
	Tracer *trace.Tracer
	// Logf, when non-nil, receives accept and archive errors, and the
	// session lifecycle when no Journal is set.
	Logf func(format string, args ...any)
	// Journal receives the session lifecycle as structured events
	// (collector.session_up, collector.session_end,
	// collector.update_malformed) and nothing else reports them: a
	// journal with a Logf tee prints each once. Nil selects a journal
	// that only renders the events to Logf.
	Journal *oplog.Journal
}

func (o Options) withDefaults() Options {
	if o.LocalAS == 0 {
		o.LocalAS = 64497
	}
	if o.HoldTime == 0 {
		o.HoldTime = 90
	}
	if o.Collector == "" {
		o.Collector = "collector"
	}
	if o.Registry == nil {
		o.Registry = obs.Default()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Journal == nil {
		o.Journal = oplog.New(oplog.Options{RingSize: 1, Logf: o.Logf})
	}
	if o.Routes == nil {
		o.Routes = paths.NewRIB()
	}
	return o
}

// Server is a running collector.
type Server struct {
	opts Options
	ln   net.Listener
	m    serverMetrics

	mu sync.Mutex
	//asrank:guardedby mu
	mw *mrt.Writer
	//asrank:guardedby mu
	sessions int
	//asrank:guardedby mu
	updates int
	//asrank:guardedby mu
	consumed map[uint32]uint32 // per-peer-ASN UPDATEs consumed (the resume offset)
	//asrank:guardedby mu
	live map[uint32]*session // per peer ASN, the one session that may consume

	wg      sync.WaitGroup
	closing chan struct{}
}

// Listen starts a collector on addr (e.g. "127.0.0.1:0").
func Listen(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	return Serve(ln, opts), nil
}

// Serve starts a collector on an existing listener — the seam the
// degradation tests use to wrap Accept (a listener whose Accept fails
// transiently).
func Serve(ln net.Listener, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		ln:       ln,
		m:        newServerMetrics(opts.Registry),
		consumed: make(map[uint32]uint32),
		live:     make(map[uint32]*session),
		closing:  make(chan struct{}),
	}
	if opts.Archive != nil {
		s.mw = mrt.NewWriter(opts.Archive)
	}
	s.wg.Add(1)
	//lint:ignore noderivedgo accept loop lives for the server's lifetime; sessions below are wg-tracked
	go s.acceptLoop()
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, waits for in-flight sessions, and returns.
func (s *Server) Close() error {
	close(s.closing)
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Corpus returns the routes live in the default RIB; a server whose
// Options.Routes was supplied keeps nothing and returns an empty
// dataset.
func (s *Server) Corpus() *paths.Dataset {
	if rib, ok := s.opts.Routes.(*paths.RIB); ok {
		s.mu.Lock() // the lock record calls the sink under
		defer s.mu.Unlock()
		return rib.Dataset()
	}
	return &paths.Dataset{}
}

// Stats returns the number of completed sessions and recorded updates.
func (s *Server) Stats() (sessions, updates int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions, s.updates
}

// ResumeOffset returns how many UPDATE messages the server has consumed
// from the given peer ASN — the offset it advertises in its OPEN.
func (s *Server) ResumeOffset(asn uint32) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.consumed[asn]
}

// session is one BGP session's claim on its peer ASN's resume offset.
type session struct{ conn net.Conn }

// errSuperseded ends a session whose peer opened a newer one.
var errSuperseded = errors.New("superseded by a newer session from the same peer")

// claim makes ss the session that consumes asn's UPDATEs and returns the
// offset it resumes at. An older session still open for asn — one whose
// speaker already gave up on it and redialed, while it drains what was
// in flight — is closed and consumes nothing more: taking the offset and
// the claim under one lock keeps every UPDATE after the offset this
// session's, so no count runs ahead of what the sink was given.
func (s *Server) claim(asn uint32, ss *session) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.live[asn]; old != nil {
		old.conn.Close() //nolint:errcheck // its reader fails and ends the old session
	}
	s.live[asn] = ss
	return s.consumed[asn]
}

// release drops ss's claim on asn unless a newer session holds it.
func (s *Server) release(asn uint32, ss *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.live[asn] == ss {
		delete(s.live, asn)
	}
}

// acceptBackoff bounds the retry backoff for transient Accept errors.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := acceptBackoffMin
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closing:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				// The listener itself is gone; nothing to retry on.
				return
			}
			// Transient failure (EMFILE, ECONNABORTED, a flaky wrapped
			// listener): back off and keep serving instead of silently
			// killing the whole collector.
			s.m.acceptRetries.Inc()
			s.opts.Logf("collector: accept: %v (retrying in %v)", err, backoff)
			select {
			case <-s.closing:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		backoff = acceptBackoffMin
		s.wg.Add(1)
		//lint:ignore noderivedgo one goroutine per accepted BGP session, bounded by the peer set and wg-drained on Close
		go func() {
			defer s.wg.Done()
			err := s.serve(conn)
			var nerr net.Error
			outcome, sev := "ok", oplog.Info
			attrs := []oplog.Attr{oplog.String("remote", conn.RemoteAddr().String())}
			if err != nil {
				outcome, sev = "error", oplog.Warn
				if errors.As(err, &nerr) && nerr.Timeout() {
					outcome = "holdtime_expired"
				}
				attrs = append(attrs, oplog.String("error", err.Error()))
			}
			s.m.sessions.With(outcome).Inc()
			s.opts.Journal.Emit(context.Background(), sev, "collector.session_end",
				append(attrs, oplog.String("outcome", outcome))...)
		}()
	}
}

// serve runs one BGP session to completion.
func (s *Server) serve(conn net.Conn) error {
	defer conn.Close()
	// Each session is its own trace root: sessions arrive over the wire
	// with no local parent (replay-side spans live in the speaker's
	// process).
	_, span := s.opts.Tracer.StartSpan(context.Background(), "collector.session")
	defer span.End()
	deadline := time.Duration(s.opts.HoldTime) * time.Second
	br := bufio.NewReader(conn)

	readMsg := func() (uint8, []byte, []byte, error) {
		if err := conn.SetReadDeadline(time.Now().Add(deadline)); err != nil {
			return 0, nil, nil, err
		}
		raw, err := bgp.ReadMessage(br)
		if err != nil {
			return 0, nil, nil, err
		}
		typ, body, err := bgp.ParseHeader(raw)
		return typ, body, raw, err
	}

	// Session establishment: OPEN in, OPEN + KEEPALIVE out. Our OPEN
	// carries the resume offset for the peer's ASN, so a speaker
	// retrying a killed session knows exactly where to pick up.
	typ, body, _, err := readMsg()
	if err != nil {
		return fmt.Errorf("reading OPEN: %w", err)
	}
	if typ != bgp.MsgOpen {
		return fmt.Errorf("expected OPEN, got type %d", typ)
	}
	peer, err := bgp.ParseOpenBody(body)
	if err != nil {
		return fmt.Errorf("parsing OPEN: %w", err)
	}
	ss := &session{conn: conn}
	var resume [4]byte
	binary.BigEndian.PutUint32(resume[:], s.claim(peer.ASN, ss))
	defer s.release(peer.ASN, ss)
	ourOpen, err := bgp.EncodeOpen(&bgp.Open{
		ASN:      s.opts.LocalAS,
		HoldTime: s.opts.HoldTime,
		BGPID:    netip.AddrFrom4([4]byte{198, 51, 100, 1}), // the collector's router ID
		RawCaps:  []bgp.RawCapability{{Code: bgp.CapResumeOffset, Value: resume[:]}},
	})
	if err != nil {
		return err
	}
	if _, err := conn.Write(ourOpen); err != nil {
		return err
	}
	if _, err := conn.Write(bgp.EncodeKeepalive()); err != nil {
		return err
	}
	as4 := peer.FourByteAS // we always offer it; effective iff both do
	span.SetAttrInt("peer_asn", int64(peer.ASN))
	span.SetAttrInt("resume", int64(binary.BigEndian.Uint32(resume[:])))
	s.opts.Journal.Info(context.Background(), "collector.session_up",
		oplog.Int("peer_asn", int64(peer.ASN)),
		oplog.String("remote", conn.RemoteAddr().String()),
		oplog.Int("resume", int64(binary.BigEndian.Uint32(resume[:]))))

	defer func() {
		s.mu.Lock()
		s.sessions++
		s.mu.Unlock()
	}()

	for {
		typ, body, raw, err := readMsg()
		if err != nil {
			return fmt.Errorf("reading message from AS%d: %w", peer.ASN, err)
		}
		switch typ {
		case bgp.MsgKeepalive:
			// Keepalives refresh the hold timer (the read deadline);
			// they are timer-driven, not echoed, so nothing is written —
			// writing here would leave unread data at a departing peer
			// and turn its close into a reset that destroys buffered
			// updates.
		case bgp.MsgUpdate:
			upd, err := bgp.ParseUpdateBody(body, as4)
			if err != nil {
				span.AddEvent("collector.malformed",
					trace.String("policy", s.opts.Malformed.String()))
				if s.opts.Malformed == MalformedSkip {
					// Treat-as-withdraw spirit: drop this update's
					// routes, count the loss, keep the session — and
					// count it as consumed so a resuming speaker does
					// not re-send what we deliberately dropped.
					s.mu.Lock()
					owner := s.live[peer.ASN] == ss
					if owner {
						s.consumed[peer.ASN]++
					}
					s.mu.Unlock()
					if !owner {
						return errSuperseded
					}
					s.m.updates.With("malformed_skipped").Inc()
					s.opts.Journal.Warn(context.Background(), "collector.update_malformed",
						oplog.Int("peer_asn", int64(peer.ASN)),
						oplog.String("policy", s.opts.Malformed.String()),
						oplog.String("error", err.Error()))
					continue
				}
				s.m.updates.With("malformed_teardown").Inc()
				return fmt.Errorf("parsing UPDATE from AS%d: %w", peer.ASN, err)
			}
			if !s.record(conn, ss, peer, upd, raw, as4) {
				return errSuperseded
			}
		case bgp.MsgNotification:
			// Orderly teardown. Acknowledge with the consumed count so
			// the speaker can verify nothing it sent was lost in
			// flight (and retry from the exact offset if it was).
			var ack [4]byte
			binary.BigEndian.PutUint32(ack[:], s.ResumeOffset(peer.ASN))
			if msg, err := bgp.EncodeNotificationData(bgp.NotifCease, 0, ack[:]); err == nil {
				conn.Write(msg) //nolint:errcheck // best-effort; the speaker retries on a lost ack
			}
			span.SetAttrInt("consumed", int64(binary.BigEndian.Uint32(ack[:])))
			return nil
		default:
			return fmt.Errorf("unexpected message type %d from AS%d", typ, peer.ASN)
		}
	}
}

// record delivers an UPDATE's route events to the sink and archives the
// raw message. It records nothing and reports false when ss no longer
// holds its peer's claim.
func (s *Server) record(conn net.Conn, ss *session, peer *bgp.Open, upd *bgp.Update, raw []byte, as4 bool) bool {
	hops, _ := paths.WireHops(peer.ASN, upd.Attrs.Path())
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.live[peer.ASN] != ss {
		return false
	}
	s.m.updates.With("recorded").Inc()
	s.updates++
	s.consumed[peer.ASN]++
	// Route events are emitted under the same lock that advances the
	// consumed counter, so a resuming speaker's replay boundary and the
	// sink's delivery boundary are the same boundary: exactly-once.
	sink := s.opts.Routes
	for _, pfx := range upd.Withdrawn {
		sink.Withdraw(s.opts.Collector, peer.ASN, pfx)
	}
	for _, pfx := range upd.NLRI {
		sink.Announce(s.opts.Collector, peer.ASN, pfx, hops)
	}
	if s.mw != nil {
		peerAddr := addrOf(conn.RemoteAddr())
		localAddr := addrOf(conn.LocalAddr())
		sub := uint16(mrt.SubtypeMessageAS4)
		if !as4 {
			sub = mrt.SubtypeMessage
		}
		rec := &mrt.Record{
			Timestamp: time.Now().UTC(),
			Type:      mrt.TypeBGP4MP,
			Subtype:   sub,
			Body: &mrt.BGP4MPMessage{
				PeerAS:    peer.ASN,
				LocalAS:   s.opts.LocalAS,
				PeerAddr:  peerAddr,
				LocalAddr: localAddr,
				AS4:       as4,
				Data:      raw,
			},
		}
		if err := s.mw.WriteRecord(rec); err != nil {
			s.opts.Logf("collector: archive: %v", err)
		}
	}
	return true
}

func addrOf(a net.Addr) netip.Addr {
	if ta, ok := a.(*net.TCPAddr); ok {
		if ip, ok := netip.AddrFromSlice(ta.IP); ok {
			return ip.Unmap()
		}
	}
	return netip.AddrFrom4([4]byte{0, 0, 0, 0})
}
