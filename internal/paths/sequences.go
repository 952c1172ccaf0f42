package paths

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
)

// Sequences interns hop sequences under dense ids — the one sequence
// table of the pipeline (Sanitize, GroupByHopsFeed, the MRT producers and
// stream.Engine all number sequences here). A released id goes to the
// next new sequence, so ids stay dense under churn. Not safe for
// concurrent use.
//
// A sequence is found by a seeded 64-bit hash of its packed hops: ids
// maps a hash to the newest id holding a sequence with that hash, next
// chains the older ones, and an id matches only when its held hops equal
// the probe. Each table draws a random
// seed, so hops fed from outside (the live collector's peers) cannot be
// crafted into one long chain; ids are numbered in birth order and never
// depend on the hash, so nothing a table returns depends on its seed.
type Sequences struct {
	seed maphash.Seed
	ids  map[uint64]int32 // hash → newest id with that hash
	next []int32          // by id: the next older id with the same hash, chainEnd, or released
	hops [][]uint32       // by id; nil for a released id
	free []int32          // released ids
	key  []byte           // scratch for one packed sequence, overwritten by the next pack
}

// The two values next holds that are not an id.
const (
	chainEnd int32 = -1 // next of the oldest id with its hash
	released int32 = -2 // next of an id no sequence holds
)

// hashKey hashes one packed sequence; a variable so that a test can make
// every sequence collide.
var hashKey = maphash.Bytes

// NewSequences returns an empty table.
func NewSequences() *Sequences { return newSequences(0) }

// newSequences returns an empty table sized for n sequences.
func newSequences(n int) *Sequences {
	return &Sequences{
		seed: maphash.MakeSeed(),
		ids:  make(map[uint64]int32, n),
		next: make([]int32, 0, n),
		hops: make([][]uint32, 0, n),
	}
}

func (t *Sequences) hash(hops []uint32) uint64 {
	t.key = t.key[:0]
	for _, a := range hops {
		t.key = binary.BigEndian.AppendUint32(t.key, a)
	}
	return hashKey(t.seed, t.key)
}

// Intern returns hops' id and whether this call assigned it. A new
// sequence keeps hops itself, read-only from then on — or a copy, when
// scratch says the slice is the caller's to reuse. A held one costs no
// allocation.
func (t *Sequences) Intern(hops []uint32, scratch bool) (id int32, fresh bool) {
	h := t.hash(hops)
	head, ok := t.ids[h]
	if !ok {
		head = chainEnd
	}
	for id := head; id != chainEnd; id = t.next[id] {
		if slices.Equal(t.hops[id], hops) {
			return id, false
		}
	}
	if scratch {
		hops = slices.Clone(hops)
	}
	if n := len(t.free); n > 0 {
		id, t.free = t.free[n-1], t.free[:n-1]
		t.hops[id], t.next[id] = hops, head
	} else {
		id = int32(len(t.hops))
		t.hops, t.next = append(t.hops, hops), append(t.next, head)
	}
	t.ids[h] = id
	return id, true
}

// Hops returns the sequence held under id; nil for a released id.
func (t *Sequences) Hops(id int32) []uint32 { return t.hops[id] }

// Release retires id and leaves its slot to the next new sequence. It
// panics on an id the table does not hold: releasing one twice would put
// it on the free list twice, and two later sequences under one id.
func (t *Sequences) Release(id int32) {
	if id < 0 || int(id) >= len(t.next) || t.next[id] == released {
		panic(fmt.Sprintf("paths: Release of sequence %d, which the table does not hold", id))
	}
	h := t.hash(t.hops[id])
	if head := t.ids[h]; head == id {
		if t.next[id] == chainEnd {
			delete(t.ids, h)
		} else {
			t.ids[h] = t.next[id]
		}
	} else {
		prev := head
		for t.next[prev] != id {
			prev = t.next[prev]
		}
		t.next[prev] = t.next[id]
	}
	t.hops[id], t.next[id] = nil, released
	t.free = append(t.free, id)
}

// Len returns the number of sequences held.
func (t *Sequences) Len() int { return len(t.hops) - len(t.free) }
