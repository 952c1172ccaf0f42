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
// MESSAGE_AS4 records announcing each route, with prefixes sharing a
// path packed into one UPDATE as real speakers do. Collectors archive
// these traces alongside RIB snapshots; paths.FromMRTUpdates flattens
// them back into a corpus.
func ExportUpdates(w io.Writer, res *Result, start time.Time) error {
	mw := mrt.NewWriter(w)
	localAddr := ipv4(0xc6336402) // collector side
	ts := start

	// Group announcements per VP, then per identical path, for packing.
	type group struct {
		key  string
		path []uint32
		nlri []netip.Prefix
	}
	byVP := make(map[uint32]map[string]*group)
	for _, p := range res.Dataset.Paths {
		vp := p.VP()
		m, ok := byVP[vp]
		if !ok {
			m = make(map[string]*group)
			byVP[vp] = m
		}
		key := fmt.Sprint(p.ASNs)
		g, ok := m[key]
		if !ok {
			g = &group{key: key, path: p.ASNs}
			m[key] = g
		}
		g.nlri = append(g.nlri, p.Prefix)
	}

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

		groups := make([]*group, 0, len(byVP[vp]))
		for _, g := range byVP[vp] {
			groups = append(groups, g)
		}
		sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
		for _, g := range groups {
			// UPDATE messages cap at 4096 bytes; chunk the NLRI.
			for len(g.nlri) > 0 {
				chunk := g.nlri
				if len(chunk) > 200 {
					chunk = chunk[:200]
				}
				g.nlri = g.nlri[len(chunk):]
				upd := &bgp.Update{
					Attrs: bgp.PathAttributes{
						Origin:      bgp.OriginIGP,
						ASPath:      bgp.Sequence(g.path...),
						NextHop:     peerAddr,
						Communities: PathCommunities(res.Topo, g.path, res.DocASes),
					},
					NLRI: chunk,
				}
				msg, err := bgp.EncodeUpdate(upd, true)
				if err != nil {
					return err
				}
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
	}
	return nil
}
