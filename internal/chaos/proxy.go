package chaos

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Proxy is an in-process chaos proxy: it accepts connections, dials the
// backend, and forwards traffic with the injector's fault schedule
// applied to the client→backend direction at BGP *message* boundaries.
// Message-granular faults are what make chaos runs analyzable: a fault
// either delivers a whole message or visibly destroys the session at a
// message edge, so the backend's record of a session is always a prefix
// of what the speaker sent — the invariant resumable replay relies on.
//
// The backend→client direction is forwarded untouched: the
// announcement stream (client→backend) is the corpus-bearing one, and a
// clean return path keeps OPEN/KEEPALIVE/teardown acks readable so the
// speaker can learn exactly how much the collector consumed.
type Proxy struct {
	in      *Injector
	ln      net.Listener
	backend string

	wg      sync.WaitGroup
	closing chan struct{}

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// Proxy starts a chaos proxy on addr (e.g. "127.0.0.1:0") forwarding to
// backend.
func (in *Injector) Proxy(addr, backend string) (*Proxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("chaos: proxy: %w", err)
	}
	p := &Proxy{
		in:      in,
		ln:      ln,
		backend: backend,
		closing: make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	//lint:ignore noderivedgo accept loop lives for the proxy's lifetime and is wg-drained on Close
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listening address.
func (p *Proxy) Addr() net.Addr { return p.ln.Addr() }

// Close stops the proxy, severing in-flight connections.
func (p *Proxy) Close() error {
	close(p.closing)
	err := p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		//lint:ignore noderivedgo one goroutine per proxied connection, wg-drained on Close
		go func() {
			defer p.wg.Done()
			p.serve(client)
		}()
	}
}

// serve proxies one connection pair to completion.
func (p *Proxy) serve(client net.Conn) {
	defer client.Close()
	p.track(client)
	defer p.untrack(client)

	backend, err := net.DialTimeout("tcp", p.backend, 10*time.Second)
	if err != nil {
		return
	}
	defer backend.Close()
	p.track(backend)
	defer p.untrack(backend)

	p.in.m.conns.Inc()
	dec := p.in.newDecider(p.in.connSeq.Add(1) - 1)

	// Return path: forwarded untouched. When either pump dies it closes
	// both sockets, which unblocks the other.
	var pumps sync.WaitGroup
	pumps.Add(1)
	//lint:ignore noderivedgo return-path pump is paired 1:1 with its connection and joined before serve returns
	go func() {
		defer pumps.Done()
		io.Copy(client, backend) //nolint:errcheck // a severed pump is the point
		client.Close()
		backend.Close()
	}()

	p.forward(dec, client, backend)
	client.Close()
	backend.Close()
	pumps.Wait()
}

// forward pumps complete BGP messages client→backend, drawing one fault
// decision per message. Destructive faults end the pair so that every
// byte the backend received forms a clean message-prefix of the
// client's stream.
func (p *Proxy) forward(dec *decider, client, backend net.Conn) {
	hdr := make([]byte, bgpHeaderLen)
	for {
		msg, err := readFrame(client, hdr)
		if err != nil {
			// EOF, a half-closed peer, or unframeable bytes: nothing
			// more we can cut at message boundaries; stop forwarding.
			return
		}
		f := dec.next(len(msg))
		if destructive(f.Kind) && !p.in.takeBudget() {
			f.Kind = FaultNone
			dec.journal[len(dec.journal)-1].Kind = FaultNone
		}
		if f.Kind != FaultNone {
			p.in.count(f.Kind)
		}
		switch f.Kind {
		case FaultDelay:
			time.Sleep(time.Duration(f.Arg))
		case FaultChunk:
			// Forward in two pieces; the backend's stream reader
			// reassembles. No loss.
			k := int(f.Arg)
			if _, err := backend.Write(msg[:k]); err != nil {
				return
			}
			if _, err := backend.Write(msg[k:]); err != nil {
				return
			}
			continue
		case FaultReset:
			return // drop the message, kill the pair
		case FaultShortWrite:
			backend.Write(msg[:int(f.Arg)]) //nolint:errcheck
			return
		case FaultCorrupt:
			changed := corrupt(dec.rng, msg, f.Arg)
			p.in.m.bytesCorrupted.Add(uint64(changed))
			backend.Write(msg) //nolint:errcheck
			// Framing trust is gone; kill the pair.
			return
		case FaultStall:
			time.Sleep(time.Duration(f.Arg))
			return
		}
		if _, err := backend.Write(msg); err != nil {
			return
		}
	}
}

// readFrame reads one complete BGP message (marker-validated) into a
// fresh buffer. hdr is a scratch header buffer reused across calls.
func readFrame(r io.Reader, hdr []byte) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if !isMarker(hdr[:bgpMarkerLen]) {
		return nil, fmt.Errorf("chaos: unframeable bytes from client")
	}
	length := int(binary.BigEndian.Uint16(hdr[bgpMarkerLen:]))
	if length < bgpHeaderLen || length > bgpMaxMsgLen {
		return nil, fmt.Errorf("chaos: bad frame length %d", length)
	}
	msg := make([]byte, length)
	copy(msg, hdr)
	if _, err := io.ReadFull(r, msg[bgpHeaderLen:]); err != nil {
		return nil, err
	}
	return msg, nil
}
