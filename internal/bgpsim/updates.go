package bgpsim

import (
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sort"
	"time"

	"github.com/asrank-go/asrank/internal/bgp"
	"github.com/asrank-go/asrank/internal/mrt"
)

// ExportUpdates writes the simulated collection as a BGP4MP update
// trace: per VP a session establishment (STATE_CHANGE_AS4) followed by
// MESSAGE_AS4 records carrying its Announcements. Collectors archive
// these traces alongside RIB snapshots; paths.FromMRTUpdates flattens
// them back into a corpus.
func ExportUpdates(w io.Writer, res *Result, start time.Time) error {
	mw := mrt.NewWriter(w)
	localAddr := ipv4(0xc6336402) // collector side
	ts := start

	vps := append([]uint32(nil), res.VPs...)
	slices.Sort(vps)
	for i, vp := range vps {
		peerAddr := ipv4(0xcb007100 + uint32(i) + 1)
		state := &mrt.BGP4MPStateChange{
			PeerAS:    vp,
			LocalAS:   64497, // the collector's AS
			PeerAddr:  peerAddr,
			LocalAddr: localAddr,
			AS4:       true,
			OldState:  mrt.StateOpenConfirm,
			NewState:  mrt.StateEstablished,
		}
		if err := mw.WriteRecord(&mrt.Record{
			Timestamp: ts, Type: mrt.TypeBGP4MP, Subtype: mrt.SubtypeStateChangeAS4, Body: state,
		}); err != nil {
			return err
		}
		ts = ts.Add(time.Millisecond)

		msgs, err := Announcements(res, vp, peerAddr)
		if err != nil {
			return err
		}
		for _, msg := range msgs {
			rec := &mrt.Record{
				Timestamp: ts,
				Type:      mrt.TypeBGP4MP,
				Subtype:   mrt.SubtypeMessageAS4,
				Body: &mrt.BGP4MPMessage{
					PeerAS:    vp,
					LocalAS:   64497,
					PeerAddr:  peerAddr,
					LocalAddr: localAddr,
					AS4:       true,
					Data:      msg,
				},
			}
			if err := mw.WriteRecord(rec); err != nil {
				return err
			}
			ts = ts.Add(time.Millisecond)
		}
	}
	return nil
}

// Announcements encodes the routes vp holds in the simulated collection
// as the UPDATE messages a speaker sends for them, in a deterministic
// order: the prefixes sharing a path are packed into one UPDATE (ORIGIN
// IGP, the path, nextHop and the path's PathCommunities), as real
// speakers do; the groups are sorted by the path's text; and a group's
// NLRI is cut every 200 prefixes, keeping each message under the
// 4096-byte limit.
func Announcements(res *Result, vp uint32, nextHop netip.Addr) ([][]byte, error) {
	type group struct {
		key  string
		path []uint32
		nlri []netip.Prefix
	}
	groups := map[string]*group{}
	for _, p := range res.Dataset.Paths {
		if p.VP() != vp {
			continue
		}
		key := fmt.Sprint(p.ASNs)
		g, ok := groups[key]
		if !ok {
			g = &group{key: key, path: p.ASNs}
			groups[key] = g
		}
		g.nlri = append(g.nlri, p.Prefix)
	}
	ordered := make([]*group, 0, len(groups))
	for _, g := range groups {
		ordered = append(ordered, g)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].key < ordered[j].key })

	var msgs [][]byte
	for _, g := range ordered {
		upd := bgp.Update{Attrs: bgp.PathAttributes{
			Origin:      bgp.OriginIGP,
			ASPath:      bgp.Sequence(g.path...),
			NextHop:     nextHop,
			Communities: PathCommunities(res.Topo, g.path, res.DocASes),
		}}
		for nlri := g.nlri; len(nlri) > 0; nlri = nlri[len(upd.NLRI):] {
			upd.NLRI = nlri[:min(len(nlri), 200)]
			msg, err := bgp.EncodeUpdate(&upd, true)
			if err != nil {
				return nil, err
			}
			msgs = append(msgs, msg)
		}
	}
	return msgs, nil
}
