// Golden input for nodeterminismleak: this package path matches the
// deterministic set, so every wall-clock read — hand-rolled duration
// instrumentation included; that goes through trace.StartPhase — global
// rand, and map-ordered writes are flagged while the seeded-generator
// and sorted-output idioms are not.
package core

import (
	"math/rand"
	"sort"
	"time"
)

type histogram struct{}

func (histogram) ObserveSince(time.Time)  {}
func (histogram) Observe(float64)         {}

type stats struct{}

func (stats) record(time.Duration) {}

func clockIntoLogic() time.Duration {
	start := time.Now() // want "time.Now in a deterministic package"
	return time.Duration(start.Unix())
}

func clockIntoComparison(deadline time.Time) bool {
	return time.Since(deadline) > 0 // want "time.Since in a deterministic package"
}

func instrumentedDuration(h histogram) {
	t0 := time.Now() // want "time.Now in a deterministic package"
	h.ObserveSince(t0)
}

func instrumentedSince(st stats) {
	t0 := time.Now()          // want "time.Now in a deterministic package"
	st.record(time.Since(t0)) // want "time.Since in a deterministic package"
}

func instrumentedObserve(h histogram) {
	t0 := time.Now()                    // want "time.Now in a deterministic package"
	h.Observe(time.Since(t0).Seconds()) // want "time.Since in a deterministic package"
}

func globalRand() int {
	return rand.Intn(5) // want "global rand.Intn draws from the shared unseeded source"
}

func globalFloat() float64 {
	return rand.Float64() // want "global rand.Float64 draws from the shared unseeded source"
}

func seededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(5)
}

func mapOrderLeak(m map[uint32]bool) []uint32 {
	var out []uint32
	for k := range m {
		out = append(out, k) // want "append to out while ranging over a map"
	}
	return out
}

func mapOrderSorted(m map[uint32]bool) []uint32 {
	var out []uint32
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func mapScratchSlice(m map[uint32][]uint32) int {
	total := 0
	for _, vs := range m {
		var scratch []uint32
		scratch = append(scratch, vs...)
		total += len(scratch)
	}
	return total
}
