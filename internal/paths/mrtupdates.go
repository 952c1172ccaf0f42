package paths

import (
	"io"

	"github.com/asrank-go/asrank/internal/mrt"
)

// UpdateStats counts what FromMRTUpdates saw in a BGP4MP trace.
type UpdateStats struct {
	Messages     int // BGP4MP message records
	Updates      int // of which parseable UPDATEs
	Announced    int // prefixes announced with a usable AS path
	Withdrawn    int // prefixes withdrawn
	StateChanges int
	Unusable     int // prefixes announced with an unusable one, which only clears the route
}

// FromMRTUpdates flattens a BGP4MP update trace into a path corpus: the
// RIB the trace converges to. Rows with equal hops share one slice, but
// the dataset carries no grouping (see Dataset): RIB.Dataset sorts the
// rows it returns, so the interning order is not their first-seen order,
// and a withdrawn route's sequence may have no row left. Its consumers
// take the rows one by one.
func FromMRTUpdates(r io.Reader, collector string) (*Dataset, UpdateStats, error) {
	var stats UpdateStats
	rib, seqs := NewRIB(), NewSequences() // equal hops share one slice across the trace
	mr := mrt.NewReader(r)
	for {
		rec, err := mr.Next()
		if err == io.EOF {
			return rib.Dataset(), stats, nil
		}
		if err != nil {
			return nil, stats, err
		}
		switch body := rec.Body.(type) {
		case *mrt.BGP4MPStateChange:
			stats.StateChanges++
		case *mrt.BGP4MPMessage:
			stats.Messages++
			upd, err := body.Update()
			if err != nil {
				continue // non-UPDATE or unparseable message
			}
			stats.Updates++
			stats.Withdrawn += len(upd.Withdrawn)
			for _, pfx := range upd.Withdrawn {
				rib.Withdraw(collector, body.PeerAS, pfx)
			}
			hops, _ := WireHops(body.PeerAS, upd.Attrs.Path())
			if hops != nil {
				stats.Announced += len(upd.NLRI)
				id, _ := seqs.Intern(hops, false)
				hops = seqs.Hops(id)
			} else {
				stats.Unusable += len(upd.NLRI)
			}
			for _, pfx := range upd.NLRI {
				rib.Announce(collector, body.PeerAS, pfx, hops)
			}
		}
	}
}
