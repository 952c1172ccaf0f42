package paths

import "sync"

// Groups partitions a dataset's rows, in first-seen row order; every
// group has a row, and a group's rows share one slice. Read's groups
// are its blocks' AS-path texts, so one path ("1 2", "1  2") may be
// several groups, which step 1 merges; other producers' hold a path
// once. Steps 1–4 and the observed cones are functions of a path's
// hops, never of the prefix or collector that carried it, and a RIB is
// a few paths repeated across many prefixes: a pass over Hops does a
// fraction of the work of a pass over rows and gives the same result.
type Groups struct {
	Of   []int32    // Of[i] is the group of row i
	Hops [][]uint32 // Hops[g] is group g's hop sequence; the very slice its rows hold, read-only
}

// GroupByHopsFeed groups ds's rows by hop sequence, numbering groups in
// first-seen row order, handing each group's hop sequence to feed
// (which may be nil) as the group is born, and closing it. The grouping
// is new, the caller's to change. Like Sanitize it interns each
// distinct sequence once: per group of ds's own grouping while that
// describes its rows.
func GroupByHopsFeed(ds *Dataset, feed *Feed) *Groups {
	gr := newGrouper(ds, feed, false, nil)
	of := make([]int32, len(ds.Paths))
	for i := range of {
		of[i] = gr.verdict(i) >> rowInfoBits
	}
	return &Groups{Of: of, Hops: gr.seqs.hops}
}

// Groups returns the grouping d carries while it still describes d's
// rows, or nil: it was built for as many rows as d holds, and every
// row's ASNs is its group's very slice — the same data pointer and
// length. That is one pointer compare a row, no hashing; a row
// appended, dropped, replaced or moved where another group's row was
// fails it, and rows that each still hold their own group's slice can
// only have moved among their group's rows, which keeps first-seen
// order. A nil result means the rows are to be taken one by one. The
// grouping is d's: read-only.
func (d *Dataset) Groups() *Groups {
	g := d.groups
	if g == nil || len(g.Of) != len(d.Paths) {
		return nil
	}
	for i, p := range d.Paths {
		hops := g.Hops[g.Of[i]]
		if len(p.ASNs) != len(hops) || len(hops) > 0 && &p.ASNs[0] != &hops[0] {
			return nil
		}
	}
	return g
}

// Filter returns ds's rows whose group keep accepts, in row order, each
// holding its group's very slice, grouped by g's kept groups renumbered
// in order. keep sees each group's hops once, in group order. g must
// group ds's rows — a Sanitize or GroupByHopsFeed result — and is given
// up: the kept groups are compacted into it in place. The rows are
// filtered in place when ds carries g, as Sanitize's output does, for
// then they are the same run's; any other ds's rows are a caller's and
// are copied.
func (g *Groups) Filter(ds *Dataset, keep func(hops []uint32) bool) *Dataset {
	id := make([]int32, len(g.Hops)) // by old group: its new number, or -1
	kept := int32(0)
	for old, hops := range g.Hops {
		if !keep(hops) {
			id[old] = -1
			continue
		}
		id[old], g.Hops[kept] = kept, hops
		kept++
	}
	g.Hops = g.Hops[:kept]
	out := ds.Paths[:0]
	if ds.groups != g {
		out = make([]Path, 0, len(ds.Paths))
	}
	of := g.Of[:0]
	for i, p := range ds.Paths {
		if k := id[g.Of[i]]; k >= 0 {
			p.ASNs = g.Hops[k]
			out, of = append(out, p), append(of, k)
		}
	}
	g.Of = of
	return &Dataset{Paths: out, groups: g}
}

// The verdicts of a group whose sequence step 1 discards, by reason.
const (
	groupReserved int32 = -1 - iota
	groupLoop
	groupTooShort
)

// grouper is what Sanitize and GroupByHopsFeed share: every group of
// the input goes through add once, in the order the groups are born,
// and is cleaned (when sanitizing) and interned there, which merges
// groups of equal hops, so sequence ids keep first-seen row order
// whichever grouping fed them. Only what a row's group says is left
// per row.
type grouper struct {
	seqs     *Sequences
	feed     *Feed
	sanitize bool
	ixp      map[uint32]bool
	buf      []uint32
	of       []int32 // by input row: its group; nil when each row is its own
	verdicts []int32 // by group: seq<<rowInfoBits | info, or a discard reason
}

// verdict returns the verdict of input row i's group.
func (gr *grouper) verdict(i int) int32 {
	if gr.of == nil {
		return gr.verdicts[i]
	}
	return gr.verdicts[gr.of[i]]
}

// newGrouper runs the grouping pass over ds and closes feed. ds's own
// grouping, while it holds, hands add every group. Any other dataset
// is grouped by content: each row is a group of its own,
// added in row order, and the interning merges rows of equal hops — a
// map of the rows' slices to find the rows that share one costs more
// than the cleaning it would save. Either way the feed first learns how
// many groups an own grouping handed the pass (0 without one), then
// fills as the pass goes.
func newGrouper(ds *Dataset, feed *Feed, sanitize bool, ixp map[uint32]bool) *grouper {
	gr := &grouper{feed: feed, sanitize: sanitize, ixp: ixp}
	// Close on every path, a panicking pass included: a reader of the
	// feed must not wait for a pass that is gone.
	defer feed.Close()
	if own := ds.Groups(); own != nil {
		feed.announce(len(own.Hops))
		gr.seqs = newSequences(len(own.Hops))
		gr.verdicts = make([]int32, 0, len(own.Hops))
		for _, hops := range own.Hops {
			gr.add(hops)
		}
		gr.of = own.Of
	} else {
		feed.announce(0)
		gr.seqs = NewSequences()
		gr.verdicts = make([]int32, 0, len(ds.Paths))
		for _, p := range ds.Paths {
			gr.add(p.ASNs)
		}
	}
	feed.publish(gr.seqs.hops)
	return gr
}

// add cleans and interns the next group's hops. A sequence cleaning
// leaves as it was is interned as the input's own slice, uncopied.
func (gr *grouper) add(hops []uint32) {
	if !gr.sanitize {
		gr.verdicts = append(gr.verdicts, gr.feed.intern(gr.seqs, hops, false)<<rowInfoBits)
		return
	}
	var info pathInfo
	gr.buf, info = sanitizePath(gr.buf[:0], hops, gr.ixp)
	var v int32
	switch {
	case info == pathReserved:
		v = groupReserved
	case info == pathLoop:
		v = groupLoop
	case len(gr.buf) < 2:
		v = groupTooShort
	case info == 0:
		v = gr.feed.intern(gr.seqs, hops, false) << rowInfoBits
	default:
		v = gr.feed.intern(gr.seqs, gr.buf, true)<<rowInfoBits | int32(info)
	}
	gr.verdicts = append(gr.verdicts, v)
}

// feedBatch is how many new sequences the interning pass gathers before
// it publishes them: one lock and one wake-up per batch, and a reader
// that is never more than a batch behind.
const feedBatch = 256

// Feed carries hop sequences from the pass that interns them to readers
// running beside it, in birth order. The writer never waits for a
// reader: publishing swaps in a longer prefix of the writer's own slice
// (Groups.Hops), whose published elements nobody writes again, so the
// feed copies nothing and holds no queue of its own.
//
// Before the first sequence, the pass announces how many groups it was
// handed: a bound on what it will publish, for readers to size their
// tables by.
type Feed struct {
	mu        sync.Mutex
	grew      sync.Cond // signalled by announce, publish and Close
	seqs      [][]uint32
	size      int  // the announced bound; 0 when the pass had no grouping to count
	announced bool // size is set
	closed    bool
}

// NewFeed returns an empty, open feed.
func NewFeed() *Feed {
	f := &Feed{}
	f.grew.L = &f.mu
	return f
}

// intern is the step GroupByHopsFeed and Sanitize share: seqs.Intern, with
// the table — which nothing is released from, so its hops by id are the
// groups — published at every feedBatch-th birth.
func (f *Feed) intern(seqs *Sequences, hops []uint32, scratch bool) int32 {
	id, fresh := seqs.Intern(hops, scratch)
	if fresh && seqs.Len()%feedBatch == 0 {
		f.publish(seqs.hops)
	}
	return id
}

// announce sets the bound SizeHint returns: the number of groups of the
// grouping the pass was handed, or 0 when it had none that holds.
func (f *Feed) announce(n int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.size, f.announced = n, true
	f.mu.Unlock()
	f.grew.Broadcast()
}

// SizeHint waits for the pass to start and returns how many groups the
// dataset's own grouping handed it (Dataset.Groups), so that no more
// sequences than that are published; 0 when the dataset carried none
// that holds, or the pass ended before it started. Knowing it costs
// the pass nothing: it checks the grouping anyway.
func (f *Feed) SizeHint() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.announced && !f.closed {
		f.grew.Wait()
	}
	return f.size
}

// publish makes seqs — every sequence interned so far, each call a
// longer prefix of the same growing slice — visible to the readers.
func (f *Feed) publish(seqs [][]uint32) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.seqs = seqs
	f.mu.Unlock()
	f.grew.Broadcast()
}

// Close ends the feed: readers drain what was published and return.
// Closing a closed or nil feed does nothing, so the writer's caller can
// close on every path, a panicking pass included.
func (f *Feed) Close() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.grew.Broadcast()
}

// Each calls fn once per sequence, in birth order, as sequences are
// published, and returns when the feed is closed and drained. Any
// number of readers may run at once; each sees every sequence.
func (f *Feed) Each(fn func(hops []uint32)) {
	for done := 0; ; {
		f.mu.Lock()
		for len(f.seqs) == done && !f.closed {
			f.grew.Wait()
		}
		seqs := f.seqs
		f.mu.Unlock()
		if len(seqs) == done {
			return
		}
		for _, hops := range seqs[done:] {
			fn(hops)
		}
		done = len(seqs)
	}
}
