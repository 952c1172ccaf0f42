package paths

import "sync"

// Groups partitions rows by hop sequence. Steps 1–4 of the pipeline are
// functions of a path's hops, never of the prefix or collector that
// carried it, and a RIB is a few paths repeated across many prefixes:
// a fold over Hops does a fraction of the work of a fold over rows and
// builds an index with the same keys.
type Groups struct {
	Of   []int32    // Of[i] is the group of row i
	Hops [][]uint32 // Hops[g] is group g's hop sequence; shared with a row, read-only
}

// GroupByHopsFeed groups rows by hop sequence, numbering groups in
// first-seen row order, handing each group's hop sequence to feed
// (which may be nil) as the group is born, and closing it.
func GroupByHopsFeed(rows []Path, feed *Feed) *Groups {
	seqs, of := NewSequences(), make([]int32, len(rows))
	for i, p := range rows {
		of[i] = feed.intern(seqs, p.ASNs, false)
	}
	feed.publish(seqs.hops)
	feed.Close()
	return &Groups{Of: of, Hops: seqs.hops}
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
type Feed struct {
	mu     sync.Mutex
	grew   sync.Cond // signalled by publish and Close
	seqs   [][]uint32
	closed bool
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
