package collector

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"time"

	"github.com/asrank-go/asrank/internal/bgp"
	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/chaos"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/pool"
	"github.com/asrank-go/asrank/internal/trace"
)

// speakerHoldTime is the hold time, in seconds, a replay speaker offers.
const speakerHoldTime = 90

// speakerID is the BGP identifier a replay speaker for vp announces
// under: 10.x.y.z from the VP's low 24 bits.
func speakerID(vp uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(vp >> 16), byte(vp >> 8), byte(vp)})
}

// ReplayOptions configures one replay session.
type ReplayOptions struct {
	// Timeout bounds each session attempt (default 30s).
	Timeout time.Duration

	// MaxRetries is how many times a failed session is redialed before
	// giving up (default 3; negative disables retries). Retries resume
	// at the collector's advertised offset, so a session killed
	// mid-table is completed with no duplicate and no lost prefixes.
	MaxRetries int
	// RetryBase is the first backoff (default 50ms); each retry doubles
	// it up to RetryMax (default 2s), jittered in [0.5, 1.5).
	RetryBase time.Duration
	RetryMax  time.Duration

	// Workers bounds ReplayAll's concurrent sessions (<= 0 selects
	// GOMAXPROCS, as everywhere internal/pool is used).
	Workers int

	// Dial opens the transport (default net.DialTimeout over TCP) — the
	// seam chaos.Injector.Dialer plugs into.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Registry receives the replay retry counters (default obs.Default()).
	Registry *obs.Registry
}

func (o ReplayOptions) withDefaults() ReplayOptions {
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 2 * time.Second
	}
	if o.Dial == nil {
		o.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if o.Registry == nil {
		o.Registry = obs.Default()
	}
	return o
}

// Replay dials a collector and announces every path the given vantage
// point holds in the simulated collection, then tears the session down
// with a CEASE notification and waits for the collector's counted ack.
// Failed sessions are retried with exponential backoff and jitter,
// resuming at the collector's advertised offset (bgp.CapResumeOffset)
// so no prefix is duplicated or lost across retries. It is the client
// half of the collector: simulator → BGP over TCP → collector.
func Replay(addr string, res *bgpsim.Result, vp uint32, opts ReplayOptions) error {
	return ReplayCtx(context.Background(), addr, res, vp, opts)
}

// ReplayCtx is Replay with a context for tracing: when ctx carries a
// span, the session records a "replay.vp" span (vp/updates attributes)
// with one "replay.attempt" child per dial. A failed attempt carries a
// "replay.error" event; an attempt killed by an injected fault
// additionally carries a "chaos.fault" event naming the fault kind and
// operation ordinal, so a chaos run's trace shows exactly which fault
// hit which vantage point.
func ReplayCtx(ctx context.Context, addr string, res *bgpsim.Result, vp uint32, opts ReplayOptions) error {
	opts = opts.withDefaults()
	m := newReplayMetrics(opts.Registry)
	ctx, span := trace.StartSpan(ctx, "replay.vp")
	defer span.End()
	span.SetAttrInt("vp", int64(vp))
	// Encoded once, in Announcements' deterministic order, so every retry
	// re-sends byte-identical messages and the collector's consumed count
	// indexes into the same sequence.
	msgs, err := bgpsim.Announcements(res, vp, speakerID(vp))
	if err != nil {
		return fmt.Errorf("replay: AS%d: %w", vp, err)
	}
	span.SetAttrInt("updates", int64(len(msgs)))

	// Jitter is deterministic per VP so chaos runs stay reproducible.
	rng := rand.New(rand.NewSource(int64(vp)*0x9e3779b9 + 1))
	backoff := opts.RetryBase
	var lastErr error
	for attempt := 0; attempt <= opts.MaxRetries; attempt++ {
		if attempt > 0 {
			m.retries.Inc()
			sleep := time.Duration(float64(backoff) * (0.5 + rng.Float64()))
			time.Sleep(sleep)
			backoff *= 2
			if backoff > opts.RetryMax {
				backoff = opts.RetryMax
			}
		}
		_, aspan := trace.StartSpan(ctx, "replay.attempt")
		aspan.SetAttrInt("attempt", int64(attempt))
		err := replayOnce(addr, vp, msgs, opts, m)
		if err == nil {
			m.attempts.With("ok").Inc()
			aspan.End()
			return nil
		}
		var fe *chaos.FaultError
		if errors.As(err, &fe) {
			// On the VP span (not just the attempt) so a per-VP view is
			// self-contained: this vantage point was hit by chaos.
			span.AddEvent("chaos.fault",
				trace.String("kind", fe.Kind.String()),
				trace.Int("op", int64(fe.Op)),
				trace.Int("attempt", int64(attempt)))
		}
		aspan.AddEvent("replay.error", trace.String("error", err.Error()))
		aspan.End()
		m.attempts.With("error").Inc()
		lastErr = err
	}
	return fmt.Errorf("replay: AS%d: giving up after %d attempts: %w", vp, opts.MaxRetries+1, lastErr)
}

// replayOnce runs a single session attempt: handshake, resume at the
// collector's offset, announce the rest, and verify the counted
// teardown ack.
func replayOnce(addr string, vp uint32, msgs [][]byte, opts ReplayOptions, m replayMetrics) error {
	conn, err := opts.Dial(addr, opts.Timeout)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(opts.Timeout)); err != nil {
		return err
	}
	br := bufio.NewReader(conn)

	open, err := bgp.EncodeOpen(&bgp.Open{ASN: vp, HoldTime: speakerHoldTime, BGPID: speakerID(vp)})
	if err != nil {
		return err
	}
	if _, err := conn.Write(open); err != nil {
		return err
	}
	// Expect the collector's OPEN — carrying the resume offset — then
	// exchange keepalives.
	msg, err := bgp.ReadMessage(br)
	if err != nil {
		return fmt.Errorf("replay: reading OPEN: %w", err)
	}
	peerOpen, err := bgp.ParseOpen(msg)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	resume := resumeOffset(peerOpen)
	if resume > len(msgs) {
		return fmt.Errorf("replay: collector claims %d updates consumed, we only have %d", resume, len(msgs))
	}
	if _, err := conn.Write(bgp.EncodeKeepalive()); err != nil {
		return err
	}
	if msg, err = bgp.ReadMessage(br); err != nil {
		return fmt.Errorf("replay: reading KEEPALIVE: %w", err)
	}
	if typ, _, err := bgp.ParseHeader(msg); err != nil {
		return fmt.Errorf("replay: expected KEEPALIVE: %w", err)
	} else if typ != bgp.MsgKeepalive {
		return fmt.Errorf("replay: expected KEEPALIVE, got type %d", typ)
	}

	// Announce everything the collector has not already consumed.
	m.resumed.Add(uint64(resume))
	for _, u := range msgs[resume:] {
		if _, err := conn.Write(u); err != nil {
			return err
		}
	}

	// Orderly teardown: CEASE carrying the count we believe the
	// collector now holds, then its counted ack back. A session only
	// succeeds when the collector confirms it consumed everything —
	// anything less (a proxy ate buffered messages, a fault killed the
	// tail) triggers a retry that resumes at the true offset.
	var expect [4]byte
	binary.BigEndian.PutUint32(expect[:], uint32(len(msgs)))
	cease, err := bgp.EncodeNotificationData(bgp.NotifCease, 0, expect[:])
	if err != nil {
		return err
	}
	if _, err := conn.Write(cease); err != nil {
		return err
	}
	ack, err := bgp.ReadMessage(br)
	if err != nil {
		return fmt.Errorf("replay: reading teardown ack: %w", err)
	}
	typ, body, err := bgp.ParseHeader(ack)
	if err != nil {
		return fmt.Errorf("replay: teardown ack: %w", err)
	}
	if typ != bgp.MsgNotification {
		return fmt.Errorf("replay: teardown ack: unexpected message type %d", typ)
	}
	_, _, data, err := bgp.ParseNotificationBody(body)
	if err != nil {
		return fmt.Errorf("replay: teardown ack: %w", err)
	}
	if len(data) < 4 {
		return fmt.Errorf("replay: teardown ack carries no count")
	}
	if got := binary.BigEndian.Uint32(data); got != uint32(len(msgs)) {
		return fmt.Errorf("replay: collector consumed %d of %d updates", got, len(msgs))
	}
	return nil
}

// resumeOffset extracts the collector's consumed-update count from its
// OPEN capabilities; absent the capability, replay starts from zero.
func resumeOffset(open *bgp.Open) int {
	for _, c := range open.RawCaps {
		if c.Code == bgp.CapResumeOffset && len(c.Value) >= 4 {
			return int(binary.BigEndian.Uint32(c.Value))
		}
	}
	return 0
}

// ReplayAll replays every VP of a simulated collection with bounded
// concurrency (opts.Workers sessions at a time via internal/pool) and
// returns the joined errors of every VP that failed — not just the
// first — so a chaos run's report names each vantage point that never
// settled.
func ReplayAll(addr string, res *bgpsim.Result, opts ReplayOptions) error {
	return ReplayAllCtx(context.Background(), addr, res, opts)
}

// ReplayAllCtx is ReplayAll with a context for tracing: when ctx
// carries a span, the fan-out records a "replay.all" span whose
// per-chunk pool.task children (one per VP) parent the "replay.vp"
// spans across the worker goroutines.
func ReplayAllCtx(ctx context.Context, addr string, res *bgpsim.Result, opts ReplayOptions) error {
	n := len(res.VPs)
	if n == 0 {
		return nil
	}
	ctx, span := trace.StartSpan(ctx, "replay.all")
	defer span.End()
	span.SetAttrInt("vps", int64(n))
	workers := pool.Resolve(opts.Workers)
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	pool.ChunksCtx(ctx, workers, n, 1, func(ctx context.Context, lo, hi int) {
		for i := lo; i < hi; i++ {
			errs[i] = ReplayCtx(ctx, addr, res, res.VPs[i], opts)
		}
	})
	return errors.Join(errs...)
}
