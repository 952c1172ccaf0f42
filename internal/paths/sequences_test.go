package paths

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"testing"
)

// collide makes every sequence hash to one value until the test ends, so
// that every id of a table sits on one chain.
func collide(t *testing.T) {
	t.Cleanup(func() { hashKey = maphash.Bytes })
	hashKey = func(maphash.Seed, []byte) uint64 { return 7 }
}

// TestSequencesOnOneChain runs insert, lookup, unlinking at the head, in
// the middle and at the tail, and reuse on a single hash chain.
func TestSequencesOnOneChain(t *testing.T) {
	collide(t)
	seqs := NewSequences()
	held := [][]uint32{{1, 2}, {1, 3}, {2, 3, 4}, {}, {4}}
	for want, hops := range held {
		if id, fresh := seqs.Intern(hops, false); id != int32(want) || !fresh {
			t.Fatalf("Intern(%v) = %d, %v; want a fresh id %d", hops, id, fresh, want)
		}
	}
	if len(seqs.ids) != 1 {
		t.Fatalf("%d hashes for sequences that all collide, want 1", len(seqs.ids))
	}
	check := func(when string) {
		t.Helper()
		n := 0
		for id, hops := range held {
			if hops == nil {
				if seqs.Hops(int32(id)) != nil {
					t.Errorf("%s: released id %d still holds %v", when, id, seqs.Hops(int32(id)))
				}
				continue
			}
			n++
			if got, fresh := seqs.Intern(slices.Clone(hops), false); got != int32(id) || fresh {
				t.Errorf("%s: Intern(%v) = %d, %v; want held id %d", when, hops, got, fresh, id)
			}
		}
		if seqs.Len() != n {
			t.Errorf("%s: Len = %d, want %d", when, seqs.Len(), n)
		}
	}
	check("all held")
	for _, step := range []struct {
		id   int32
		when string
	}{{4, "head released"}, {1, "middle released"}, {0, "tail released"}} {
		seqs.Release(step.id)
		held[step.id] = nil
		check(step.when)
	}
	for _, want := range []int32{0, 1, 4} { // the newest freed id first
		hops := []uint32{9, uint32(want)}
		if id, fresh := seqs.Intern(hops, false); id != want || !fresh {
			t.Fatalf("Intern(%v) after releases = %d, %v; want the freed id %d", hops, id, fresh, want)
		}
		held[want] = hops
	}
	check("freed ids reused")
	for id := range held {
		seqs.Release(int32(id))
	}
	if len(seqs.ids) != 0 || seqs.Len() != 0 {
		t.Errorf("empty table keeps %d hashes, Len %d", len(seqs.ids), seqs.Len())
	}
}

// TestReleaseOfAnIdNotHeldPanics: releasing an id twice once put it on
// the free list twice, and the next two sequences shared it.
func TestReleaseOfAnIdNotHeldPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		id   int32
	}{{"released twice", 0}, {"never assigned", 2}, {"negative", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			seqs := NewSequences()
			seqs.Intern([]uint32{1, 2}, false)
			seqs.Intern([]uint32{1, 3}, false)
			seqs.Release(0)
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "does not hold") {
					t.Errorf("Release(%d) recovered %q, want a panic saying the table does not hold it", tc.id, msg)
				}
			}()
			seqs.Release(tc.id)
		})
	}
}

// FuzzSequences runs a byte program of Intern and Release calls over
// sequences of 0–5 hops from a 4-AS alphabet, with the real hash and
// with every sequence on one chain, and after each call holds the table
// to a map from the hops' text plus a free list: ids, fresh, Hops, Len,
// and the newest released id going to the next new sequence.
//
// A call is a header byte — bit 0 a release, bit 1 scratch hops, bits
// 2–7 the length modulo 6 — then one byte per hop, or one byte choosing
// which held id a release retires.
func FuzzSequences(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x08, 1, 2, 0x0a, 1, 3, 0x01, 0, 0x08, 1, 2, 0x0a, 1, 2})
	f.Add([]byte{0x00, 0x02, 0x04, 3, 0x01, 0, 0x01, 0, 0x00, 0x14, 0, 1, 2, 3, 0, 0x01, 1})
	// Four births, then releases from the middle and the head of the
	// chain they share under collide, each followed by lookups past it.
	f.Add([]byte{
		0x08, 1, 2, 0x08, 1, 3, 0x08, 2, 3, 0x04, 3,
		0x01, 1, 0x08, 1, 2,
		0x01, 2, 0x08, 1, 2, 0x08, 2, 3, 0x0c, 0, 0, 0,
		0x01, 0, 0x01, 0, 0x01, 0, 0x0a, 2, 3,
	})
	f.Fuzz(func(t *testing.T, prog []byte) {
		runSequencesProgram(t, prog)
		collide(t)
		runSequencesProgram(t, prog)
	})
}

func runSequencesProgram(t *testing.T, prog []byte) {
	seqs := NewSequences()
	var (
		ids     = map[string]int32{}
		want    [][]uint32 // by id; nil when released
		free    []int32
		scratch []uint32
	)
	for calls := 0; len(prog) > 0 && calls < 64; calls++ {
		h := prog[0]
		prog = prog[1:]
		if h&1 != 0 {
			var live []int32
			for id, hops := range want {
				if hops != nil {
					live = append(live, int32(id))
				}
			}
			if len(live) == 0 || len(prog) == 0 {
				continue
			}
			id := live[int(prog[0])%len(live)]
			prog = prog[1:]
			seqs.Release(id)
			delete(ids, fmt.Sprint(want[id]))
			want[id] = nil
			free = append(free, id)
		} else {
			n := min(int(h>>2)%6, len(prog))
			hops := make([]uint32, n)
			for i, b := range prog[:n] {
				hops[i] = uint32(b % 4)
			}
			prog = prog[n:]
			key := fmt.Sprint(hops)
			wantID, held := ids[key]
			if !held {
				if k := len(free); k > 0 {
					wantID, free = free[k-1], free[:k-1]
					want[wantID] = hops
				} else {
					wantID = int32(len(want))
					want = append(want, hops)
				}
				ids[key] = wantID
			}
			arg, isScratch := hops, h&2 != 0
			if isScratch {
				scratch = append(scratch[:0], hops...)
				arg = scratch
			}
			id, fresh := seqs.Intern(arg, isScratch)
			if id != wantID || fresh == held {
				t.Fatalf("call %d: Intern(%v) = %d, %v; want %d, %v", calls, hops, id, fresh, wantID, !held)
			}
			if fresh && !isScratch && n > 0 && &seqs.Hops(id)[0] != &hops[0] {
				t.Fatalf("call %d: a new sequence was copied though the caller handed it over", calls)
			}
			for i := range scratch {
				scratch[i] = 99 // the caller's to reuse
			}
		}
		if seqs.Len() != len(ids) {
			t.Fatalf("call %d: Len = %d, want %d", calls, seqs.Len(), len(ids))
		}
		for id, hops := range want {
			got := seqs.Hops(int32(id))
			if hops == nil && got != nil || !slices.Equal(got, hops) {
				t.Fatalf("call %d: Hops(%d) = %v, want %v", calls, id, got, hops)
			}
		}
	}
}
