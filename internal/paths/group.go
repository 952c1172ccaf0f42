package paths

import "encoding/binary"

// hopTable interns hop sequences: id numbers each distinct sequence in
// first-seen order.
type hopTable struct {
	ids map[string]int32
	key []byte
}

// id returns the sequence's number and whether this call assigned it.
func (t *hopTable) id(asns []uint32) (int32, bool) {
	t.key = t.key[:0]
	for _, a := range asns {
		t.key = binary.BigEndian.AppendUint32(t.key, a)
	}
	id, ok := t.ids[string(t.key)]
	if !ok {
		id = int32(len(t.ids))
		t.ids[string(t.key)] = id
	}
	return id, !ok
}

// Groups partitions rows by hop sequence. Steps 1–4 of the pipeline are
// functions of a path's hops, never of the prefix or collector that
// carried it, and a RIB is a few paths repeated across many prefixes:
// a fold over Hops with each group's row count as multiplicity does a
// fraction of the work of a fold over rows and builds the same index.
type Groups struct {
	Of   []int32    // Of[i] is the group of row i
	Hops [][]uint32 // Hops[g] is group g's hop sequence; shared with a row, read-only
}

// GroupByHops groups rows by hop sequence, numbering groups in
// first-seen row order.
func GroupByHops(rows []Path) *Groups {
	g := &Groups{Of: make([]int32, len(rows))}
	t := hopTable{ids: make(map[string]int32)}
	for i, p := range rows {
		id, fresh := t.id(p.ASNs)
		if fresh {
			g.Hops = append(g.Hops, p.ASNs)
		}
		g.Of[i] = id
	}
	return g
}
