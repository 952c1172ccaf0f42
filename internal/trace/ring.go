package trace

import (
	"sort"
	"sync/atomic"
)

// Ring is the bounded lock-free buffer behind the span flight recorder
// and the oplog journal: a fixed array of atomic slots and a
// monotonically increasing head. A writer claims the next slot with a
// single fetch-add and stores its element with a single atomic pointer
// write — no locks, no blocking, and readers racing a writer see either
// the old element or the new one, both fully published (the writer
// finishes every field write before the slot store, and the atomic
// pointer store/load pair gives the happens-before edge).
type Ring[T any] struct {
	slots []atomic.Pointer[T]
	head  atomic.Uint64
}

// NewRing returns an empty ring that keeps the newest size elements.
func NewRing[T any](size int) *Ring[T] {
	return &Ring[T]{slots: make([]atomic.Pointer[T], size)}
}

// Add stores v, evicting the oldest element once the ring is full.
func (r *Ring[T]) Add(v *T) {
	i := (r.head.Add(1) - 1) % uint64(len(r.slots))
	r.slots[i].Store(v)
}

// Snapshot returns the ring's current elements ordered by less. Under
// concurrent writes the result is a consistent-enough view for a
// post-hoc dump: each slot read is atomic, and sorting by the caller's
// key keeps the output stable regardless of eviction order.
func (r *Ring[T]) Snapshot(less func(a, b *T) bool) []*T {
	out := make([]*T, 0, len(r.slots))
	for i := range r.slots {
		if v := r.slots[i].Load(); v != nil {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(a, b int) bool { return less(out[a], out[b]) })
	return out
}
