package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/asrank-go/asrank/internal/obs"
)

// spicy is a schedule with every fault class enabled.
func spicy(seed int64) Options {
	return Options{
		Seed:           seed,
		ResetProb:      0.05,
		ShortWriteProb: 0.05,
		CorruptProb:    0.05,
		StallProb:      0.02,
		DelayProb:      0.10,
		ChunkProb:      0.20,
		MaxDelay:       100 * time.Microsecond,
		StallTime:      time.Millisecond,
	}
}

func TestScheduleDeterminism(t *testing.T) {
	// Same seed → byte-identical fault schedule, for every connection.
	for connID := int64(0); connID < 5; connID++ {
		a := Schedule(spicy(42), connID, 500, 64)
		b := Schedule(spicy(42), connID, 500, 64)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("conn %d: same seed produced different schedules", connID)
		}
	}
	// Different seeds (and different conns under one seed) diverge.
	a := Schedule(spicy(42), 0, 500, 64)
	if reflect.DeepEqual(a, Schedule(spicy(43), 0, 500, 64)) {
		t.Error("different seeds produced identical schedules")
	}
	if reflect.DeepEqual(a, Schedule(spicy(42), 1, 500, 64)) {
		t.Error("different connections share one schedule")
	}
	// The schedule actually contains faults at these rates.
	kinds := map[FaultKind]int{}
	for _, f := range a {
		kinds[f.Kind]++
	}
	for _, k := range []FaultKind{FaultReset, FaultShortWrite, FaultCorrupt, FaultDelay, FaultChunk} {
		if kinds[k] == 0 {
			t.Errorf("schedule of 500 ops contains no %v faults", k)
		}
	}
}

// tcpPair returns two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		server, err = ln.Accept()
		close(done)
	}()
	client, cerr := net.Dial("tcp", ln.Addr().String())
	<-done
	if err != nil || cerr != nil {
		t.Fatalf("pair: %v / %v", err, cerr)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestConnJournalMatchesSchedule(t *testing.T) {
	// A benign-only schedule (no connection-killing faults) applied to
	// fixed-size writes must journal exactly what Schedule predicts.
	opts := Options{Seed: 7, DelayProb: 0.2, ChunkProb: 0.4, MaxDelay: 50 * time.Microsecond,
		Registry: obs.NewRegistry()}
	in := New(opts)
	client, server := tcpPair(t)
	go io.Copy(io.Discard, server) //nolint:errcheck

	const ops, bufLen = 100, 64
	c := in.WrapConn(client)
	buf := make([]byte, bufLen)
	for i := 0; i < ops; i++ {
		if _, err := c.Write(buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	want := Schedule(opts, 0, ops, bufLen)
	if got := c.Journal(); !reflect.DeepEqual(got, want) {
		t.Fatalf("journal diverged from schedule:\n got %v\nwant %v", got, want)
	}
}

func TestResetKillsConnection(t *testing.T) {
	reg := obs.NewRegistry()
	in := New(Options{Seed: 1, ResetProb: 1, Registry: reg})
	client, server := tcpPair(t)
	c := in.WrapConn(client)
	_, err := c.Write([]byte("hello"))
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Kind != FaultReset {
		t.Fatalf("want injected reset, got %v", err)
	}
	// The peer sees the teardown.
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := server.Read(make([]byte, 1)); err == nil {
		t.Error("peer still connected after injected reset")
	}
	if in.FaultsInjected() != 1 {
		t.Errorf("FaultsInjected = %d, want 1", in.FaultsInjected())
	}
}

func TestCorruptionIsDetectable(t *testing.T) {
	// A marker-aligned write must land its damage inside the marker, so
	// a framing-aware receiver always catches it.
	reg := obs.NewRegistry()
	in := New(Options{Seed: 3, CorruptProb: 1, Registry: reg})
	client, server := tcpPair(t)
	c := in.WrapConn(client)

	msg := make([]byte, 32)
	for i := 0; i < bgpMarkerLen; i++ {
		msg[i] = 0xff
	}
	msg[16], msg[17], msg[18] = 0x00, 32, 4 // length=32, type=KEEPALIVE-ish
	_, err := c.Write(msg)
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Kind != FaultCorrupt {
		t.Fatalf("want injected corruption error, got %v", err)
	}

	got := make([]byte, 32)
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatalf("reading corrupted bytes: %v", err)
	}
	if isMarker(got[:bgpMarkerLen]) {
		t.Error("corruption left the marker intact — undetectable damage")
	}
	if reg.Counter("asrank_chaos_bytes_corrupted_total", "").Value() == 0 {
		t.Error("corrupted bytes not counted")
	}
}

func TestFaultBudgetExhausts(t *testing.T) {
	// With a budget of 2, the first two connections eat a reset and the
	// third passes clean: the layer converges to a pass-through, which
	// is what lets retry loops settle.
	in := New(Options{Seed: 9, ResetProb: 1, FaultBudget: 2, Registry: obs.NewRegistry()})
	for i := 0; i < 3; i++ {
		client, server := tcpPair(t)
		go io.Copy(io.Discard, server) //nolint:errcheck
		c := in.WrapConn(client)
		_, err := c.Write([]byte("x"))
		if i < 2 && err == nil {
			t.Fatalf("conn %d: fault not injected while budget remains", i)
		}
		if i == 2 && err != nil {
			t.Fatalf("conn %d: fault injected after budget exhausted: %v", i, err)
		}
	}
	if in.FaultsInjected() != 2 {
		t.Errorf("FaultsInjected = %d, want 2", in.FaultsInjected())
	}
}

// validFrame builds a marker-framed pseudo-BGP message of the given
// total length and type, with a deterministic body.
func validFrame(length int, typ byte) []byte {
	msg := make([]byte, length)
	for i := 0; i < bgpMarkerLen; i++ {
		msg[i] = 0xff
	}
	msg[16], msg[17] = byte(length>>8), byte(length)
	msg[18] = typ
	for i := bgpHeaderLen; i < length; i++ {
		msg[i] = byte(i)
	}
	return msg
}

func TestCorruptVariantsDeterministic(t *testing.T) {
	base := validFrame(64, 2)
	a := CorruptVariants(20130401, base, 16)
	b := CorruptVariants(20130401, base, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different corpora")
	}
	if len(a) != 16 {
		t.Fatalf("got %d variants, want 16", len(a))
	}
	differs := 0
	for _, v := range a {
		if !bytes.Equal(v, base) {
			differs++
		}
	}
	if differs == 0 {
		t.Error("no variant differs from the base encoding")
	}
	if reflect.DeepEqual(a, CorruptVariants(1, base, 16)) {
		t.Error("different seeds produced identical corpora")
	}
}
