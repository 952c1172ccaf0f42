package paths

import (
	"encoding/binary"
	"slices"
)

// Sequences interns hop sequences under dense ids — the one sequence
// table of the pipeline (Sanitize, GroupByHops, the MRT producers and
// stream.Engine all number sequences here) and the only place a
// sequence's map key is packed. A released id goes to the next new
// sequence, so ids stay dense under churn. Not safe for concurrent use.
type Sequences struct {
	ids  map[string]int32
	hops [][]uint32 // by id; nil marks a released slot
	free []int32    // released ids
	key  []byte     // scratch for one ids key, overwritten by the next pack
}

// NewSequences returns an empty table.
func NewSequences() *Sequences { return &Sequences{ids: make(map[string]int32)} }

func (t *Sequences) pack(hops []uint32) []byte {
	t.key = t.key[:0]
	for _, a := range hops {
		t.key = binary.BigEndian.AppendUint32(t.key, a)
	}
	return t.key
}

// Intern returns hops' id and whether this call assigned it. A new
// sequence keeps hops itself, read-only from then on — or a copy, when
// scratch says the slice is the caller's to reuse. A held one costs no
// allocation: a map lookup keyed by string(bytes) reads them in place.
func (t *Sequences) Intern(hops []uint32, scratch bool) (id int32, fresh bool) {
	key := t.pack(hops)
	if id, ok := t.ids[string(key)]; ok {
		return id, false
	}
	if scratch {
		hops = slices.Clone(hops)
	}
	if n := len(t.free); n > 0 {
		id, t.free = t.free[n-1], t.free[:n-1]
		t.hops[id] = hops
	} else {
		id = int32(len(t.hops))
		t.hops = append(t.hops, hops)
	}
	t.ids[string(key)] = id
	return id, true
}

// Hops returns the sequence held under id; nil for a released id.
func (t *Sequences) Hops(id int32) []uint32 { return t.hops[id] }

// Release retires id and leaves its slot to the next new sequence.
func (t *Sequences) Release(id int32) {
	delete(t.ids, string(t.pack(t.hops[id])))
	t.hops[id] = nil
	t.free = append(t.free, id)
}

// Len returns the number of sequences held.
func (t *Sequences) Len() int { return len(t.ids) }
