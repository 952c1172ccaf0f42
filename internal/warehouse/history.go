package warehouse

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/topology"
)

// History is the immutable in-memory time-travel index the API layer
// serves from: per-epoch rank/degree/cone columns plus the
// relationship-change list against each epoch's predecessor. Each
// Append publishes a new History value (sharing all prior per-epoch
// data), so readers never observe a half-extended index.
type History struct {
	epochs []EpochInfo
	series []epochSeries
	etag   string
}

// epochSeries is one epoch's queryable column set.
type epochSeries struct {
	asns          []uint32 // shared with the decoded snapshot; never mutated
	rankOf        []int32  // position → 1-based rank
	coneASes      []int32  // position → cone size in ASes
	conePrefixes  []int64  // position → prefix-weighted cone size
	degree        []int32
	transitDegree []int32
	changes       []RelChange // vs predecessor, sorted by (A, B) ASN; empty for epoch 0
}

// RelChange is one link whose relationship differs from the previous
// epoch, in ASN terms. Old/New use topology.None for "absent", so an
// appeared link has Old == None and a vanished link has New == None.
// Step names the step of the new labeling ("" when the link vanished).
type RelChange struct {
	A    uint32                `json:"a"`
	B    uint32                `json:"b"`
	Old  topology.Relationship `json:"old"`
	New  topology.Relationship `json:"new"`
	Step string                `json:"step,omitempty"`
}

func newHistory() *History {
	return &History{etag: chainETag(nil)}
}

// extend returns a new History with snap appended as epoch info.ID.
// coneASes is snap's cone sizes by position, from which the epoch is
// ranked by the rule Snapshot.Rank applies; changes is the
// relationship-change list against the preceding epoch (nil for the
// first). The series keeps snap's columns, coneASes and changes, none of
// which may be written afterwards.
func (h *History) extend(info EpochInfo, snap *Snapshot, coneASes []int32, changes []RelChange) *History {
	rank := cone.RankPositions(coneASes, snap.TransitDegree)
	s := epochSeries{
		asns:          snap.ASNs,
		rankOf:        make([]int32, len(rank)),
		coneASes:      coneASes,
		conePrefixes:  snap.ConePrefixes,
		degree:        snap.Degree,
		transitDegree: snap.TransitDegree,
		changes:       changes,
	}
	for r, p := range rank {
		s.rankOf[p] = int32(r) + 1
	}

	epochs := append(append([]EpochInfo(nil), h.epochs...), info)
	series := append(append([]epochSeries(nil), h.series...), s)
	return &History{epochs: epochs, series: series, etag: chainETag(epochs)}
}

// relChanges renders the link diff between consecutive snapshots in
// ASN terms, sorted by (A, B); nil for the first epoch (nil prev).
func relChanges(prev, snap *Snapshot, d linkDiff) []RelChange {
	if prev == nil {
		return nil
	}
	out := make([]RelChange, 0, len(d.removed)+len(d.added)+len(d.changed))
	for _, l := range d.removed {
		out = append(out, RelChange{A: prev.ASNs[l.A], B: prev.ASNs[l.B], Old: l.Rel})
	}
	for _, l := range d.added {
		out = append(out, RelChange{
			A: snap.ASNs[l.A], B: snap.ASNs[l.B], New: l.Rel, Step: l.Step.String(),
		})
	}
	for i, l := range d.changed {
		out = append(out, RelChange{
			A: snap.ASNs[l.A], B: snap.ASNs[l.B], Old: d.changedFrom[i], New: l.Rel, Step: l.Step.String(),
		})
	}
	slices.SortFunc(out, byEndpoints)
	return out
}

// byEndpoints orders relationship changes by (A, B).
func byEndpoints(x, y RelChange) int {
	if x.A != y.A {
		return cmp.Compare(x.A, y.A)
	}
	return cmp.Compare(x.B, y.B)
}

// posOf binary-searches a sorted ASN column.
func posOf(asns []uint32, asn uint32) (int32, bool) {
	i := sort.Search(len(asns), func(i int) bool { return asns[i] >= asn })
	if i < len(asns) && asns[i] == asn {
		return int32(i), true
	}
	return 0, false
}

// chainETag derives the strong ETag the time-travel routes serve
// under: a hash over every epoch's (id, content hash) pair, so any
// append or recovery truncation changes it.
func chainETag(epochs []EpochInfo) string {
	h := fnv.New64a()
	for _, e := range epochs {
		fmt.Fprintf(h, "%d:%s;", e.ID, e.Hash)
	}
	return fmt.Sprintf("\"wh-%016x\"", h.Sum64())
}

// ETag returns the chain ETag over all epochs in this History.
func (h *History) ETag() string { return h.etag }

// Len returns the number of epochs indexed.
func (h *History) Len() int { return len(h.epochs) }

// Epochs returns the indexed manifest entries, oldest first (shared;
// callers must not modify).
func (h *History) Epochs() []EpochInfo { return h.epochs }

// ASNEpoch is one epoch's view of one AS, as served by
// /asns/{asn}/history.
type ASNEpoch struct {
	Epoch         uint32      `json:"epoch"`
	Label         string      `json:"label"`
	Present       bool        `json:"present"`
	Rank          int32       `json:"rank,omitempty"`
	ConeASes      int32       `json:"coneASes,omitempty"`
	ConePrefixes  int64       `json:"conePrefixes,omitempty"`
	Degree        int32       `json:"degree,omitempty"`
	TransitDegree int32       `json:"transitDegree,omitempty"`
	Changes       []RelChange `json:"changes,omitempty"`
}

// ASN returns asn's trajectory across every epoch, oldest first —
// rank, cone size, degree, and the relationship changes touching it.
// Epochs where the AS is absent report Present == false.
func (h *History) ASN(asn uint32) []ASNEpoch {
	out := make([]ASNEpoch, 0, len(h.series))
	for i := range h.series {
		s := &h.series[i]
		e := ASNEpoch{Epoch: h.epochs[i].ID, Label: h.epochs[i].Label}
		if p, ok := posOf(s.asns, asn); ok {
			e.Present = true
			e.Rank = s.rankOf[p]
			e.ConeASes = s.coneASes[p]
			e.ConePrefixes = s.conePrefixes[p]
			e.Degree = s.degree[p]
			e.TransitDegree = s.transitDegree[p]
		}
		for _, c := range s.changes {
			if c.A == asn || c.B == asn {
				e.Changes = append(e.Changes, c)
			}
		}
		out = append(out, e)
	}
	return out
}

// Diff folds the stored per-epoch change lists from epoch `from` to
// epoch `to` (from < to, both readable) into the net relationship
// changes between the two — links whose final state equals their state
// at `from` cancel out, however often they flapped in between. No
// inference re-runs and no segment reads: the fold walks the in-memory
// change lists only.
//
// Each epoch's list is sorted by (A, B) and names a link at most once,
// so the fold is a merge: every list merges into a running one, sorted
// the same way, in which a link keeps the Old of its first change and
// takes New and Step from its latest. The running list lives in one
// buffer sized for every change in the range, merged into from the
// back so no entry is overwritten before it is read.
func (h *History) Diff(from, to uint32) ([]RelChange, error) {
	if from >= to || int(to) >= len(h.series) {
		return nil, fmt.Errorf("warehouse: diff range [%d,%d] invalid for %d epochs", from, to, len(h.series))
	}
	total := 0
	for e := from + 1; e <= to; e++ {
		total += len(h.series[e].changes)
	}
	acc := make([]RelChange, 0, total)
	for e := from + 1; e <= to; e++ {
		acc = mergeChanges(acc, h.series[e].changes)
	}
	out := acc[:0]
	for _, c := range acc {
		if c.Old != c.New {
			out = append(out, c)
		}
	}
	return out, nil
}

// mergeChanges folds the next epoch's changes cs into acc, both sorted
// by (A, B), in acc's own array, whose capacity must hold both lists. It
// writes from the back — the larger link of the two heads goes last — so
// the write position never passes the unread part of acc; a link in both
// lists takes one slot, and the gap it leaves at the front is closed by
// one copy at the end.
func mergeChanges(acc, cs []RelChange) []RelChange {
	i, j := len(acc)-1, len(cs)-1
	buf := acc[:len(acc)+len(cs)]
	k := len(buf)
	for j >= 0 {
		k--
		order := -1
		if i >= 0 {
			order = byEndpoints(acc[i], cs[j])
		}
		switch {
		case order < 0:
			buf[k] = cs[j]
			j--
		case order > 0:
			buf[k] = acc[i]
			i--
		default:
			buf[k] = RelChange{A: cs[j].A, B: cs[j].B, Old: acc[i].Old, New: cs[j].New, Step: cs[j].Step}
			i--
			j--
		}
	}
	// acc[:i+1] is already in place at the front; the merged tail moves
	// down to meet it.
	n := copy(buf[i+1:], buf[k:])
	return buf[:i+1+n]
}
