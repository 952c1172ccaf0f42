// Package chaos is a deterministic, seed-driven fault-injection layer
// for the live-collection path: a net.Conn wrapper, handed out by a
// dialer, that injects connection resets, partial reads/writes, delays,
// short writes, byte corruption, and stalled peers — reproducibly from
// a seed. It exists so the partial-visibility failure modes that
// AS-relationship inference is most sensitive to (a vantage point's
// session dying mid-table) are *testable*, not just survivable.
//
// One injector is enough because every destructive fault ends the
// connection: replay writes each BGP message in one Write, and the
// collector records only whole messages, so what it records of a
// session is always a prefix of what the speaker sent — the invariant
// resumable replay relies on. A torn frame ends the session uncounted.
//
// Determinism. Every connection an Injector touches gets its own fault
// stream derived from (Seed, connection ordinal): the nth operation on
// the kth connection always draws the same decision. Schedule exposes
// that stream directly so tests can pin "same seed → byte-identical
// fault schedule". A shared FaultBudget bounds the total number of
// destructive faults, which is what lets retry loops settle: once the
// budget is spent the layer becomes a clean pass-through.
//
// Catchability. Injected byte corruption is biased to land in the
// 16-byte BGP marker when a write is message-aligned, so a
// framing-aware receiver is guaranteed to detect it (the protocol has
// no checksum; silently plausible corruption is out of scope — the obs
// counter is "corrupted and caught", by construction). The faulted
// writer also gets an error back, modeling a transport that noticed.
//
// Every injected fault is counted through internal/obs
// (asrank_chaos_faults_total by kind, asrank_chaos_bytes_corrupted_total,
// asrank_chaos_conns_total), so chaos runs produce auditable reports.
package chaos

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/asrank-go/asrank/internal/obs"
)

// FaultKind enumerates the injectable faults.
type FaultKind uint8

// Fault kinds. None and the benign kinds (Delay, Chunk) never consume
// the fault budget; the destructive kinds (Reset, ShortWrite, Corrupt,
// Stall) do, and end the connection.
const (
	FaultNone FaultKind = iota
	// FaultDelay sleeps up to MaxDelay before the operation.
	FaultDelay
	// FaultChunk splits the operation into smaller reads/writes without
	// losing bytes (partial reads/writes, the benign kind).
	FaultChunk
	// FaultReset closes the connection before the operation.
	FaultReset
	// FaultShortWrite delivers a strict prefix of the buffer, then
	// resets — a message cut mid-frame.
	FaultShortWrite
	// FaultCorrupt flips bytes (marker-biased, see package doc),
	// delivers the damaged buffer, then resets.
	FaultCorrupt
	// FaultStall goes silent for StallTime, then resets — a stalled
	// peer, the hold-timer's reason to exist.
	FaultStall
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDelay:
		return "delay"
	case FaultChunk:
		return "chunk"
	case FaultReset:
		return "reset"
	case FaultShortWrite:
		return "short_write"
	case FaultCorrupt:
		return "corrupt"
	case FaultStall:
		return "stall"
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Fault is one decision in a connection's fault schedule.
type Fault struct {
	// Op is the 0-based operation ordinal on the connection (each Read
	// or Write call is one op).
	Op int
	// Kind is what was injected; FaultNone for a clean operation.
	Kind FaultKind
	// Arg is the kind-specific parameter: delay in nanoseconds, chunk
	// size in bytes, delivered-prefix length for short writes, byte
	// count for corruption.
	Arg int64
}

func (f Fault) String() string { return fmt.Sprintf("op%d:%s(%d)", f.Op, f.Kind, f.Arg) }

// Options configures an Injector. All probabilities are per operation
// and drawn in a fixed order (reset, short write, corrupt, stall,
// delay, chunk); their sum should stay below 1.
type Options struct {
	// Seed drives every random decision. Same seed, same schedule.
	Seed int64

	ResetProb      float64
	ShortWriteProb float64
	CorruptProb    float64
	StallProb      float64
	DelayProb      float64
	ChunkProb      float64

	// MaxDelay bounds FaultDelay sleeps (default 2ms).
	MaxDelay time.Duration
	// StallTime is how long FaultStall goes silent (default 2s).
	StallTime time.Duration
	// FaultBudget caps the total destructive faults injected across all
	// connections; 0 means unlimited. A bounded budget is what makes
	// retry loops converge: the layer degrades to a clean pass-through.
	FaultBudget int
	// Registry receives the chaos metrics (default obs.Default()).
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Millisecond
	}
	if o.StallTime <= 0 {
		o.StallTime = 2 * time.Second
	}
	if o.Registry == nil {
		o.Registry = obs.Default()
	}
	return o
}

// metrics are the chaos families in the run report.
type metrics struct {
	faults         *obs.CounterVec // kind
	bytesCorrupted *obs.Counter
	conns          *obs.Counter
}

func newMetrics(r *obs.Registry) metrics {
	return metrics{
		faults: r.CounterVec("asrank_chaos_faults_total",
			"Faults injected by the chaos layer, by kind.", "kind"),
		bytesCorrupted: r.Counter("asrank_chaos_bytes_corrupted_total",
			"Bytes the chaos layer corrupted in flight (always detectably: marker-biased)."),
		conns: r.Counter("asrank_chaos_conns_total",
			"Connections wrapped by the chaos layer."),
	}
}

// Injector hands out fault-wrapped connections, through WrapConn or a
// Dialer, that all share one seed and one fault budget.
type Injector struct {
	opts    Options
	m       metrics
	connSeq atomic.Int64
	spent   atomic.Int64 // destructive faults consumed from the budget
}

// New returns an Injector for the given options.
func New(opts Options) *Injector {
	opts = opts.withDefaults()
	return &Injector{opts: opts, m: newMetrics(opts.Registry)}
}

// FaultsInjected reports how many destructive faults have fired so far.
func (in *Injector) FaultsInjected() int64 { return in.spent.Load() }

// takeBudget consumes one destructive fault from the budget; it returns
// false when the budget is exhausted (the fault must be suppressed).
func (in *Injector) takeBudget() bool {
	if in.opts.FaultBudget <= 0 {
		in.spent.Add(1)
		return true
	}
	for {
		cur := in.spent.Load()
		if cur >= int64(in.opts.FaultBudget) {
			return false
		}
		if in.spent.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// count records an applied fault in the metrics.
func (in *Injector) count(k FaultKind) { in.m.faults.With(k.String()).Inc() }

// decider draws the fault schedule for one connection. It is not safe
// for concurrent use; connections serialize access with a mutex.
type decider struct {
	rng     *rand.Rand
	opts    Options
	op      int
	journal []Fault
}

// connSeed derives a connection's private seed from the injector seed
// and the connection ordinal (splitmix-style odd-constant mixing).
func connSeed(seed, connID int64) int64 {
	z := seed + (connID+1)*-0x61c8864680b583eb // golden-ratio increment
	z = (z ^ (z >> 30)) * -0x40a7b892e31b1a47
	z = (z ^ (z >> 27)) * -0x6b2fb644ecceee15
	return z ^ (z >> 31)
}

func (in *Injector) newDecider(connID int64) *decider {
	return &decider{rng: rand.New(rand.NewSource(connSeed(in.opts.Seed, connID))), opts: in.opts}
}

// next draws the decision for the next operation on a buffer of n
// bytes. The draw sequence per op is fixed (one kind draw, one arg
// draw), so the stream is identical for identical (seed, connID) even
// when a shared budget later suppresses a destructive fault.
func (d *decider) next(n int) Fault {
	f := Fault{Op: d.op}
	d.op++
	p := d.rng.Float64()
	arg := d.rng.Int63()
	o := &d.opts
	switch {
	case p < o.ResetProb:
		f.Kind = FaultReset
	case p < o.ResetProb+o.ShortWriteProb:
		f.Kind = FaultShortWrite
		if n > 0 {
			f.Arg = arg % int64(n) // deliver a strict prefix
		}
	case p < o.ResetProb+o.ShortWriteProb+o.CorruptProb:
		f.Kind = FaultCorrupt
		f.Arg = 1 + arg%3 // bytes to damage
	case p < o.ResetProb+o.ShortWriteProb+o.CorruptProb+o.StallProb:
		f.Kind = FaultStall
		f.Arg = int64(o.StallTime)
	case p < o.ResetProb+o.ShortWriteProb+o.CorruptProb+o.StallProb+o.DelayProb:
		f.Kind = FaultDelay
		f.Arg = 1 + arg%int64(o.MaxDelay)
	case p < o.ResetProb+o.ShortWriteProb+o.CorruptProb+o.StallProb+o.DelayProb+o.ChunkProb:
		f.Kind = FaultChunk
		if n > 1 {
			f.Arg = 1 + arg%int64(n-1) // first chunk length in [1, n)
		} else {
			f.Kind = FaultNone
		}
	}
	d.journal = append(d.journal, f)
	return f
}

// destructive reports whether the kind consumes budget and kills the
// connection.
func destructive(k FaultKind) bool {
	switch k {
	case FaultReset, FaultShortWrite, FaultCorrupt, FaultStall:
		return true
	}
	return false
}

// Schedule returns the first n fault decisions the Injector seeded with
// opts would make on connection connID, assuming every operation moves
// bufLen bytes. It is the reference the determinism tests pin: the
// schedule is a pure function of (Seed, connID, op ordinal).
func Schedule(opts Options, connID int64, n, bufLen int) []Fault {
	opts = opts.withDefaults()
	d := &decider{rng: rand.New(rand.NewSource(connSeed(opts.Seed, connID))), opts: opts}
	out := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.next(bufLen))
	}
	return out
}

// bgpMarkerLen is the BGP message-header marker length; chaos knows the
// framing shape (not the protocol) so corruption can be made detectable
// without importing internal/bgp (which would cycle through its fuzz
// tests).
const (
	bgpMarkerLen = 16
	bgpHeaderLen = 19
)

// corrupt damages up to nBytes bytes of p in place, biased into the BGP
// marker when p is message-aligned so the damage is guaranteed
// detectable, and returns how many bytes were changed.
func corrupt(rng *rand.Rand, p []byte, nBytes int64) int {
	if len(p) == 0 {
		return 0
	}
	span := len(p)
	if span >= bgpHeaderLen && isMarker(p[:bgpMarkerLen]) {
		span = bgpMarkerLen
	}
	changed := 0
	for i := int64(0); i < nBytes; i++ {
		off := rng.Intn(span)
		p[off] ^= byte(1 + rng.Intn(255)) // never a no-op flip
		changed++
	}
	return changed
}

func isMarker(p []byte) bool {
	for _, b := range p {
		if b != 0xff {
			return false
		}
	}
	return true
}

// FaultError is the error surfaced to the side whose operation was
// faulted; it unwraps nothing (the fault is the root cause).
type FaultError struct {
	Kind FaultKind
	Op   int
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("chaos: injected %s at op %d", e.Kind, e.Op)
}
