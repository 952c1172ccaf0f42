package warehouse

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/topology"
)

// History is the immutable in-memory time-travel index the API layer
// serves from, and the store's one list of its epochs: the manifest
// entries, each epoch's series (its rank column, its AS column and the
// ASes whose metrics moved) plus the relationship-change list against
// each epoch's predecessor. Each Append publishes a new History value
// whose epochs and series arrays are its predecessor's, grown in place
// by one entry; every published value keeps its own length, so none
// ever sees an entry appended after it, and readers never observe a
// half-extended index.
type History struct {
	epochs []EpochInfo
	series []epochSeries
	chain  uint64 // running FNV-1a state over every epoch's "id:hash;"
	etag   string
}

// epochSeries is one epoch's queryable columns. Rank is dense: it moves
// for nearly every AS every epoch. The four metrics beside it move for a
// small share of the ASes, so an epoch keeps only those: moved lists, by
// ascending ASN, every AS of the epoch whose (cone size, cone prefixes,
// degree, transit degree) differs from the predecessor's, an AS the
// predecessor lacks counting as all zero (so the first epoch lists
// every AS with a non-zero metric). An AS's metrics at an epoch are
// those of the last list naming it since it was last absent, or zero.
type epochSeries struct {
	asns    []uint32    // the predecessor's column when the AS set did not move; never mutated
	rankOf  []int32     // position → 1-based rank
	moved   []asMetrics // vs predecessor, by ascending ASN
	changes []RelChange // vs predecessor, sorted by (A, B) ASN; empty for epoch 0
}

// asMetrics is one AS's metrics at one epoch.
type asMetrics struct {
	asn           uint32
	coneASes      int32 // cone size in ASes
	conePrefixes  int64 // prefix-weighted cone size
	degree        int32
	transitDegree int32
}

// metricsAt returns position p's metrics in s, whose ConeStart is set.
func metricsAt(s *Snapshot, p int) asMetrics {
	return asMetrics{
		asn:           s.ASNs[p],
		coneASes:      s.ConeStart[p+1] - s.ConeStart[p],
		conePrefixes:  s.ConePrefixes[p],
		degree:        s.Degree[p],
		transitDegree: s.TransitDegree[p],
	}
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

// The chain ETag's hash is 64-bit FNV-1a, kept as a running state.
const fnvOffset64, fnvPrime64 = 14695981039346656037, 1099511628211

func newHistory() *History {
	return &History{chain: fnvOffset64, etag: chainTag(fnvOffset64)}
}

// extend returns a new History with snap appended as epoch info.ID.
// prev is the epoch h ends with (nil for the first), still readable:
// the store's last snapshot in Append, the replayer's previous epoch in
// Open. Both are read for their AS, metric and cone-offset columns; snap
// is ranked from its cone sizes by the rule Snapshot.Rank applies, and
// its metrics are diffed against prev's in one merge walk of the two AS
// columns. changes is the relationship-change list against prev (nil for
// the first epoch). The series keeps snap's AS column, unless prev's set
// is the same, and changes, neither of which may be written afterwards.
//
// The new History appends to h's arrays rather than copying them, so
// only the latest History may be extended, and only by its store: under
// the store's write lock, or inside Open before the store is shared. A
// History extended but never published (a manifest write failed) is
// dropped, and the next extend of h writes over the slot it used.
// scratch is the writer's, reused epoch to epoch: the ranking and the
// moved positions are read out of it into the series' own rankOf and
// moved list, so no History shares it.
func (h *History) extend(info EpochInfo, prev, snap *Snapshot, changes []RelChange, scratch *rankScratch) *History {
	n := len(snap.ASNs)
	scratch.sizes = rowLengths(reuse(scratch.sizes, n)[:n], snap.ConeStart)
	rank := scratch.rank(scratch.sizes, snap.TransitDegree)
	s := epochSeries{asns: snap.ASNs, rankOf: make([]int32, n), changes: changes}
	for r, p := range rank {
		s.rankOf[p] = int32(r) + 1
	}
	var setMoved bool
	scratch.moved, setMoved = movedSince(reuse(scratch.moved, n), prev, snap)
	if len(scratch.moved) > 0 {
		s.moved = make([]asMetrics, len(scratch.moved))
		for i, p := range scratch.moved {
			s.moved[i] = metricsAt(snap, int(p))
		}
	}
	if !setMoved && len(h.series) > 0 {
		s.asns = h.series[len(h.series)-1].asns
	}

	chain := chainStep(h.chain, info)
	return &History{
		epochs: append(h.epochs, info),
		series: append(h.series, s),
		chain:  chain,
		etag:   chainTag(chain),
	}
}

// movedSince appends to moved, ascending, the position in snap of every
// AS whose metrics differ from prev's, an AS prev lacks (or a nil prev)
// counting as all zero, and reports whether the two AS sets differ. It
// is one merge walk of the two AS columns.
func movedSince(moved []int32, prev, snap *Snapshot) ([]int32, bool) {
	var old []uint32
	if prev != nil {
		old = prev.ASNs
	}
	setMoved := len(old) != len(snap.ASNs)
	start, prefixes, degree, transit := snap.ConeStart, snap.ConePrefixes, snap.Degree, snap.TransitDegree
	q := 0
	for p, asn := range snap.ASNs {
		for q < len(old) && old[q] < asn {
			q++
			setMoved = true
		}
		// Each metric less its value at prev, where prev holds the AS.
		size, pref, deg, td := start[p+1]-start[p], prefixes[p], degree[p], transit[p]
		if q < len(old) && old[q] == asn {
			size -= prev.ConeStart[q+1] - prev.ConeStart[q]
			pref -= prev.ConePrefixes[q]
			deg -= prev.Degree[q]
			td -= prev.TransitDegree[q]
			q++
		} else {
			setMoved = true
		}
		if size|deg|td != 0 || pref != 0 {
			moved = append(moved, int32(p))
		}
	}
	return moved, setMoved || q < len(old)
}

// rankScratch is what extend works in: the cone sizes and the pair of
// position arrays it ranks an epoch in, and the positions whose metrics
// moved — the writer's own, under the store's lock or inside Open.
type rankScratch struct {
	a, b, sizes, moved []int32
}

// rank returns the positions of sizes in rank order (cone.RankPositions),
// in one of the pair's arrays, valid until the next call.
func (r *rankScratch) rank(sizes, transitDegree []int32) []int32 {
	n := len(sizes)
	r.a, r.b = reuse(r.a, n)[:n], reuse(r.b, n)[:n]
	return cone.RankPositionsInto(r.a, r.b, sizes, transitDegree)
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

// movedAt binary-searches a moved list for asn's entry.
func movedAt(moved []asMetrics, asn uint32) (int, bool) {
	return slices.BinarySearchFunc(moved, asn, func(m asMetrics, asn uint32) int { return cmp.Compare(m.asn, asn) })
}

// chainStep folds one epoch's "id:hash;" into the running FNV-1a state
// of the chain ETag: the strong ETag the time-travel routes serve under,
// a hash over every epoch's (id, content hash) pair in order, so any
// append or recovery truncation changes it.
func chainStep(h uint64, e EpochInfo) uint64 {
	var buf [64]byte
	b := strconv.AppendUint(buf[:0], uint64(e.ID), 10)
	b = append(append(append(b, ':'), e.Hash...), ';')
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// chainTag renders a chain hash state as the quoted ETag.
func chainTag(h uint64) string { return fmt.Sprintf("\"wh-%016x\"", h) }

// ETag returns the chain ETag over all epochs in this History.
func (h *History) ETag() string { return h.etag }

// Len returns the number of epochs indexed.
func (h *History) Len() int { return len(h.epochs) }

// Epochs returns the indexed manifest entries, oldest first (shared;
// callers must not modify). Its capacity is its length: the array
// behind it is the one the store appends its next epoch to, and a
// caller's append must copy rather than write there.
func (h *History) Epochs() []EpochInfo { return slices.Clip(h.epochs) }

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
// Epochs where the AS is absent report Present == false. The metrics are
// carried from epoch to epoch, taken from each epoch's moved list where
// it names the AS and reset while the AS is absent.
func (h *History) ASN(asn uint32) []ASNEpoch {
	out := make([]ASNEpoch, 0, len(h.series))
	var m asMetrics // asn's metrics as of the epoch before, zero while absent
	for i := range h.series {
		s := &h.series[i]
		e := ASNEpoch{Epoch: h.epochs[i].ID, Label: h.epochs[i].Label}
		if p, ok := posOf(s.asns, asn); ok {
			if j, ok := movedAt(s.moved, asn); ok {
				m = s.moved[j]
			}
			e.Present = true
			e.Rank = s.rankOf[p]
			e.ConeASes = m.coneASes
			e.ConePrefixes = m.conePrefixes
			e.Degree = m.degree
			e.TransitDegree = m.transitDegree
		} else {
			m = asMetrics{}
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
