package main

import (
	"bufio"
	"fmt"
	"net"
	"net/netip"
	"time"

	"github.com/asrank-go/asrank/internal/bgp"
	"github.com/asrank-go/asrank/internal/streamtest"
)

const (
	// speakerHoldTime is the hold time the speaker offers, in seconds —
	// the collector's own default.
	speakerHoldTime = 90
	// speakerIOTimeout bounds every handshake read and every write.
	speakerIOTimeout = 30 * time.Second
)

// speaker is the benchmark's BGP speaker: one persistent session from
// one vantage point to the collector. It opens with OPEN/KEEPALIVE,
// sends pre-encoded UPDATEs (announcements with NLRI, withdrawals with
// withdrawn routes), keeps the session alive inside the hold time, and
// ends with a CEASE notification.
//
// The collector's OPEN carries a resume offset (how many UPDATEs it has
// already consumed from this ASN) for speakers that replay a fixed
// sequence. This speaker ignores it by design: every churn epoch is new
// traffic, never a replay, so there is nothing to resume.
type speaker struct {
	vp        uint32
	conn      net.Conn
	br        *bufio.Reader
	lastWrite time.Time
}

// dialSpeaker connects and completes the session handshake.
func dialSpeaker(addr string, vp uint32) (*speaker, error) {
	conn, err := net.DialTimeout("tcp", addr, speakerIOTimeout)
	if err != nil {
		return nil, fmt.Errorf("speaker AS%d: %w", vp, err)
	}
	s := &speaker{vp: vp, conn: conn, br: bufio.NewReader(conn)}
	if err := s.handshake(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("speaker AS%d: %w", vp, err)
	}
	return s, nil
}

// openMessage is the OPEN a vantage point sends.
func openMessage(vp uint32) ([]byte, error) {
	return bgp.EncodeOpen(&bgp.Open{
		ASN:      vp,
		HoldTime: speakerHoldTime,
		BGPID:    netip.AddrFrom4([4]byte{10, byte(vp >> 16), byte(vp >> 8), byte(vp)}),
	})
}

func (s *speaker) handshake() error {
	open, err := openMessage(s.vp)
	if err != nil {
		return err
	}
	if err := s.write(open); err != nil {
		return err
	}
	if err := s.expect(bgp.MsgOpen); err != nil {
		return err
	}
	if err := s.write(bgp.EncodeKeepalive()); err != nil {
		return err
	}
	return s.expect(bgp.MsgKeepalive)
}

// expect reads one message and requires it to be of the given type.
func (s *speaker) expect(want uint8) error {
	if err := s.conn.SetReadDeadline(time.Now().Add(speakerIOTimeout)); err != nil {
		return err
	}
	msg, err := bgp.ReadMessage(s.br)
	if err != nil {
		return fmt.Errorf("reading message type %d: %w", want, err)
	}
	typ, _, err := bgp.ParseHeader(msg)
	if err != nil {
		return fmt.Errorf("reading message type %d: %w", want, err)
	}
	if typ != want {
		return fmt.Errorf("expected message type %d, got %d", want, typ)
	}
	return nil
}

// write sends already-encoded messages.
func (s *speaker) write(buf []byte) error {
	now := time.Now()
	if err := s.conn.SetWriteDeadline(now.Add(speakerIOTimeout)); err != nil {
		return err
	}
	if _, err := s.conn.Write(buf); err != nil {
		return fmt.Errorf("speaker AS%d: %w", s.vp, err)
	}
	s.lastWrite = now
	return nil
}

// keepalive sends a KEEPALIVE when a third of the hold time has passed
// since the last message, as RFC 4271 suggests.
func (s *speaker) keepalive(now time.Time) error {
	if now.Sub(s.lastWrite) < speakerHoldTime*time.Second/3 {
		return nil
	}
	return s.write(bgp.EncodeKeepalive())
}

// close ends the session with a CEASE, waits for the collector's
// teardown ack so that nothing it buffered is lost to a reset, and
// closes the connection.
func (s *speaker) close() error {
	defer s.conn.Close()
	if err := s.write(bgp.EncodeNotification(bgp.NotifCease, 0)); err != nil {
		return err
	}
	return s.expect(bgp.MsgNotification)
}

// encodeEvent renders one route event as one UPDATE: a withdrawal
// carries the prefix in the withdrawn-routes field, an announcement
// carries it as NLRI under the event's AS path. One event per message
// keeps the order of events for one route exactly as scheduled.
func encodeEvent(ev streamtest.Event, nextHop netip.Addr) ([]byte, error) {
	if ev.Withdraw {
		return bgp.EncodeUpdate(&bgp.Update{Withdrawn: []netip.Prefix{ev.Key.Prefix}}, true)
	}
	return bgp.EncodeUpdate(&bgp.Update{
		Attrs: bgp.PathAttributes{
			Origin:  bgp.OriginIGP,
			ASPath:  bgp.Sequence(ev.ASNs...),
			NextHop: nextHop,
		},
		NLRI: []netip.Prefix{ev.Key.Prefix},
	}, true)
}
