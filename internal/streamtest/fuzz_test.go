package streamtest

import (
	"context"
	"net/netip"
	"testing"

	"github.com/asrank-go/asrank/internal/chaos"
	"github.com/asrank-go/asrank/internal/stream"
)

// fuzzASNs maps mutator bytes onto a small, adversarial ASN alphabet:
// mostly a dense core (1..56) so paths collide into a real graph, plus
// the values sanitization and refcounting must survive — zero, the
// reserved-private floor, AS_TRANS, 16-bit and 32-bit maxima.
var fuzzASNs = func() []uint32 {
	tab := make([]uint32, 0, 64)
	for i := uint32(1); i <= 56; i++ {
		tab = append(tab, i)
	}
	return append(tab, 0, 64512, 23456, 65535, 4_200_000_000, 4_294_967_295)
}()

// applyFuzzProgram decodes one byte stream as a route-event program
// and applies it to both the engine and the independent mirror,
// committing (and differentially checking) whenever the program says
// to. Layout per op: [opcode][vp][pfxHi][pfxLo][pathLen][pathLen ASN
// picks]; opcode%8 selects withdraw (0), commit+check (1), announce
// (2..7, biased toward announces so tables actually grow).
func applyFuzzProgram(t *testing.T, data []byte) {
	eng := stream.New(stream.Options{})
	mirror := make(Mirror)
	check := func(ep int) {
		inc := eng.Commit(context.Background())
		batch := BatchReference(mirror, stream.Options{})
		if err := EquivCheck(inc, batch); err != nil {
			t.Fatalf("commit %d of fuzz program: %v", ep, err)
		}
	}
	commits := 0
	for i := 0; i+5 <= len(data); {
		op, vp := data[i]%8, uint32(data[i+1]%5)
		key := RouteKey{
			Collector: string(rune('a' + data[i+1]%2)),
			VP:        vp,
			Prefix:    netip.PrefixFrom(netip.AddrFrom4([4]byte{10, data[i+2], data[i+3], 0}), 24),
		}
		n := int(data[i+4] % 12)
		i += 5
		switch op {
		case 0:
			mirror.Apply(Event{Withdraw: true, Key: key})
			eng.Withdraw(key.Collector, key.VP, key.Prefix)
		case 1:
			commits++
			check(commits)
			i += n // consume the path bytes the announce would have
		default:
			if i+n > len(data) {
				return
			}
			asns := make([]uint32, 0, n)
			for _, b := range data[i : i+n] {
				asns = append(asns, fuzzASNs[int(b)%len(fuzzASNs)])
			}
			i += n
			mirror.Apply(Event{Key: key, ASNs: asns})
			eng.Announce(key.Collector, key.VP, key.Prefix, asns)
		}
	}
	commits++
	check(commits)
}

// FuzzCorpusMutator fuzzes the incremental corpus mutator end to end:
// arbitrary byte programs become announce/withdraw/commit streams that
// must never panic the engine and must stay bit-identical to the batch
// reference at every commit. Seeds include chaos-corrupted variants of
// a known-good program, so the explored space starts at the boundary
// where valid schedules decay into garbage.
func FuzzCorpusMutator(f *testing.F) {
	// A known-good program: announces across two VPs sharing hops, a
	// garbage path, a withdraw, a mid-program commit, a reroute.
	base := []byte{
		2, 0, 0, 1, 4, 1, 2, 3, 4,
		2, 1, 0, 2, 4, 5, 2, 3, 4,
		2, 0, 0, 3, 5, 1, 2, 60, 3, 4, // hop 60 → ASN 0: sanitize must drop
		0, 1, 0, 2, 0,
		1, 0, 0, 0, 0,
		2, 0, 0, 1, 5, 1, 2, 6, 3, 4,
	}
	f.Add(base)
	f.Add([]byte{})
	// A program that changes the clique between two commits, so the
	// explored space starts on the flag-flip path: {1, 2} under the first
	// commit (AS 2 ranks first), {10, 11} under the second (AS 10 does).
	// The third path is a 1–7–8–2 sandwich the change un-poisons, the
	// last a 10–20–22–11 sandwich it poisons.
	f.Add([]byte{
		2, 0, 0, 1, 3, 0, 1, 2,
		2, 1, 0, 2, 3, 3, 1, 4,
		2, 2, 0, 3, 6, 5, 0, 6, 7, 1, 8,
		1, 0, 0, 0, 0,
		2, 0, 1, 1, 3, 10, 9, 11,
		2, 1, 1, 2, 3, 12, 9, 13,
		2, 2, 1, 3, 3, 14, 9, 15,
		2, 3, 1, 4, 3, 16, 9, 17,
		2, 4, 1, 5, 6, 18, 9, 19, 21, 10, 20,
	})
	// A program about sequences rather than routes: path 1–2–3 under two
	// prefixes (one sequence, two rows); a reroute of the first to 1–2–7–3
	// (a row dies, the sequence survives); a reroute of the second to
	// 1–2–8–3 (one Announce retires the sequence's last row and creates
	// another sequence); a commit; then 1–2–3 announced again under a
	// third prefix (a resurrection) and the first prefix withdrawn.
	f.Add([]byte{
		2, 0, 0, 1, 3, 0, 1, 2,
		2, 0, 0, 2, 3, 0, 1, 2,
		2, 1, 0, 3, 3, 4, 1, 5,
		1, 0, 0, 0, 0,
		2, 0, 0, 1, 4, 0, 1, 6, 2,
		2, 0, 0, 2, 4, 0, 1, 7, 2,
		1, 0, 0, 0, 0,
		2, 0, 0, 4, 3, 0, 1, 2,
		0, 0, 0, 1, 0,
	})
	for _, v := range chaos.CorruptVariants(20130401, base, 8) {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512] // bound per-input work; structure, not size, finds bugs
		}
		applyFuzzProgram(t, data)
	})
}
