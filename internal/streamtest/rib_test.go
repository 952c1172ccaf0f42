package streamtest

import (
	"fmt"
	"slices"
	"testing"

	"github.com/asrank-go/asrank/internal/paths"
)

// canonicalRows renders a corpus as its sorted rows: the two route
// tables order their datasets differently, and a corpus is a multiset.
func canonicalRows(ds *paths.Dataset) []string {
	rows := make([]string, 0, len(ds.Paths))
	for _, p := range ds.Paths {
		rows = append(rows, fmt.Sprint(p.Collector, p.Prefix, p.ASNs))
	}
	slices.Sort(rows)
	return rows
}

// TestRIBEqualsMirror holds paths.RIB — the collector's default sink
// and the body of FromMRTUpdates — to the harness's independent route
// table: over churn schedules with every event kind, the two hold the
// same routes and sanitize to the same corpus at every epoch.
func TestRIBEqualsMirror(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		sched := NewSchedule(seed, baseCorpus(), 6, 40)
		rib, mirror := paths.NewRIB(), make(Mirror)
		for ep, evs := range sched.Epochs {
			for _, ev := range evs {
				mirror.Apply(ev)
				if ev.Withdraw {
					rib.Withdraw(ev.Key.Collector, ev.Key.VP, ev.Key.Prefix)
				} else {
					rib.Announce(ev.Key.Collector, ev.Key.VP, ev.Key.Prefix, ev.ASNs)
				}
			}
			got, want := rib.Dataset(), mirror.Dataset()
			if !slices.Equal(canonicalRows(got), canonicalRows(want)) {
				t.Fatalf("seed %d epoch %d: RIB holds %d routes, mirror %d, and they differ", seed, ep, got.NumPaths(), want.NumPaths())
			}
			gotClean, gotStats := paths.Sanitize(got, paths.SanitizeOptions{})
			wantClean, wantStats := paths.Sanitize(want, paths.SanitizeOptions{})
			if gotStats != wantStats || !slices.Equal(canonicalRows(gotClean), canonicalRows(wantClean)) {
				t.Fatalf("seed %d epoch %d: sanitized corpora differ: stats %+v vs %+v", seed, ep, gotStats, wantStats)
			}
		}
	}
}
