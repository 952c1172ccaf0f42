package chaos

import (
	"net"
	"sync"
	"time"
)

// Conn is a net.Conn with the injector's fault schedule applied to
// every Read and Write. Destructive faults close the underlying
// connection and surface a *FaultError, so the application sees exactly
// what a flaky network would show it: resets, short writes, silence.
type Conn struct {
	net.Conn
	in *Injector

	mu  sync.Mutex // decider RNG is not concurrency-safe
	dec *decider
}

// WrapConn wraps an established connection, assigning it the next
// connection ordinal in the injector's schedule.
func (in *Injector) WrapConn(c net.Conn) *Conn {
	in.m.conns.Inc()
	return &Conn{Conn: c, in: in, dec: in.newDecider(in.connSeq.Add(1) - 1)}
}

// Journal returns the decisions made on this connection so far,
// including clean (FaultNone) operations. The journal for a connection
// is byte-identical across runs with the same seed and op sequence.
func (c *Conn) Journal() []Fault {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Fault(nil), c.dec.journal...)
}

// decide draws the next fault, applying the shared budget: destructive
// faults demote to FaultNone once the budget is spent.
func (c *Conn) decide(n int) Fault {
	c.mu.Lock()
	f := c.dec.next(n)
	c.mu.Unlock()
	if destructive(f.Kind) && !c.in.takeBudget() {
		f.Kind = FaultNone
		c.mu.Lock()
		c.dec.journal[len(c.dec.journal)-1].Kind = FaultNone
		c.mu.Unlock()
	}
	if f.Kind != FaultNone {
		c.in.count(f.Kind)
	}
	return f
}

// abort tears the connection down, as the faults do.
func (c *Conn) abort() { c.Conn.Close() }

// Write applies the next scheduled fault to one write.
func (c *Conn) Write(p []byte) (int, error) {
	f := c.decide(len(p))
	switch f.Kind {
	case FaultDelay:
		time.Sleep(time.Duration(f.Arg))
	case FaultChunk:
		// Benign partial writes: the bytes all arrive, in pieces.
		k := int(f.Arg)
		n, err := c.Conn.Write(p[:k])
		if err != nil {
			return n, err
		}
		m, err := c.Conn.Write(p[k:])
		return n + m, err
	case FaultReset:
		c.abort()
		return 0, &FaultError{Kind: f.Kind, Op: f.Op}
	case FaultShortWrite:
		n, _ := c.Conn.Write(p[:int(f.Arg)])
		c.abort()
		return n, &FaultError{Kind: f.Kind, Op: f.Op}
	case FaultCorrupt:
		buf := append([]byte(nil), p...)
		c.mu.Lock()
		changed := corrupt(c.dec.rng, buf, f.Arg)
		c.mu.Unlock()
		c.in.m.bytesCorrupted.Add(uint64(changed))
		n, _ := c.Conn.Write(buf)
		c.abort()
		// The writer is told: corruption here models a transport that
		// noticed after the fact, and the receiver catches the damage
		// in the framing (marker-biased, see corrupt).
		return n, &FaultError{Kind: f.Kind, Op: f.Op}
	case FaultStall:
		time.Sleep(time.Duration(f.Arg))
		c.abort()
		return 0, &FaultError{Kind: f.Kind, Op: f.Op}
	}
	return c.Conn.Write(p)
}

// Read applies the next scheduled fault to one read.
func (c *Conn) Read(p []byte) (int, error) {
	f := c.decide(len(p))
	switch f.Kind {
	case FaultDelay:
		time.Sleep(time.Duration(f.Arg))
	case FaultChunk:
		// Benign partial read: return fewer bytes than asked for.
		return c.Conn.Read(p[:int(f.Arg)])
	case FaultReset:
		c.abort()
		return 0, &FaultError{Kind: f.Kind, Op: f.Op}
	case FaultShortWrite:
		// Meaningless on the read side; treat as a reset.
		c.abort()
		return 0, &FaultError{Kind: f.Kind, Op: f.Op}
	case FaultCorrupt:
		n, err := c.Conn.Read(p)
		if n > 0 {
			c.mu.Lock()
			changed := corrupt(c.dec.rng, p[:n], f.Arg)
			c.mu.Unlock()
			c.in.m.bytesCorrupted.Add(uint64(changed))
		}
		c.abort()
		if err == nil {
			err = &FaultError{Kind: f.Kind, Op: f.Op}
		}
		return n, err
	case FaultStall:
		time.Sleep(time.Duration(f.Arg))
		c.abort()
		return 0, &FaultError{Kind: f.Kind, Op: f.Op}
	}
	return c.Conn.Read(p)
}

// Dialer wraps a dial function (net.DialTimeout over TCP when base is
// nil) so every dialed connection is fault-injected — chaos on the
// speaker's side. The signature matches collector.ReplayOptions.Dial.
func (in *Injector) Dialer(base func(addr string, timeout time.Duration) (net.Conn, error)) func(addr string, timeout time.Duration) (net.Conn, error) {
	if base == nil {
		base = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := base(addr, timeout)
		if err != nil {
			return nil, err
		}
		return in.WrapConn(c), nil
	}
}
