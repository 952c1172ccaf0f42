package paths

import (
	"io"

	"github.com/asrank-go/asrank/internal/mrt"
)

// MRTStats counts what FromMRT saw while flattening a RIB snapshot.
type MRTStats struct {
	Entries     int // RIB entries read
	Unusable    int // entries discarded: the AS path has an AS_SET or no hops
	VPPrepended int // entries whose path lacked the peer AS as first hop
}

// FromMRT flattens a TABLE_DUMP_V2 RIB snapshot into a path dataset,
// one row per entry whose AS path WireHops can use. Rows with equal hops
// share one slice (see Path), and the dataset carries that grouping of
// its rows by hop sequence (see Dataset).
func FromMRT(r io.Reader, collector string) (*Dataset, MRTStats, error) {
	ds, seqs := &Dataset{}, NewSequences()
	var (
		of    []int32 // by row: its sequence, numbered in first-seen order (nothing is released)
		stats MRTStats
	)
	rr := mrt.NewRIBReader(r)
	for {
		e, err := rr.Next()
		if err == io.EOF {
			ds.groups = &Groups{Of: of, Hops: seqs.hops}
			return ds, stats, nil
		}
		if err != nil {
			return nil, stats, err
		}
		stats.Entries++
		hops, prepended := WireHops(e.Peer.ASN, e.RIBEntry.Attrs.Path())
		if hops == nil {
			stats.Unusable++
			continue
		}
		if prepended {
			stats.VPPrepended++
		}
		id, _ := seqs.Intern(hops, false)
		ds.Add(Path{Collector: collector, Prefix: e.Prefix, ASNs: seqs.Hops(id)})
		of = append(of, id)
	}
}
