package mrt

import (
	"fmt"
	"io"
	"net/netip"
	"time"
)

// RIBWriter writes a TABLE_DUMP_V2 RIB snapshot: one PEER_INDEX_TABLE
// followed by one RIB record per prefix, with sequence numbers assigned
// automatically.
type RIBWriter struct {
	w         *Writer
	timestamp time.Time
	index     *PeerIndexTable
	wroteIdx  bool
	seq       uint32
}

// NewRIBWriter prepares a RIB snapshot writer. The peer index table is
// written lazily before the first prefix.
func NewRIBWriter(w io.Writer, collectorID netip.Addr, viewName string, peers []Peer, timestamp time.Time) *RIBWriter {
	return &RIBWriter{
		w:         NewWriter(w),
		timestamp: timestamp,
		index: &PeerIndexTable{
			CollectorID: collectorID,
			ViewName:    viewName,
			Peers:       peers,
		},
	}
}

func (rw *RIBWriter) writeIndex() error {
	if rw.wroteIdx {
		return nil
	}
	rw.wroteIdx = true
	return rw.w.WriteRecord(&Record{
		Timestamp: rw.timestamp,
		Type:      TypeTableDumpV2,
		Subtype:   SubtypePeerIndexTable,
		Body:      rw.index,
	})
}

// WritePrefix writes the RIB record for one prefix. Entries reference
// peers by index into the writer's peer table.
func (rw *RIBWriter) WritePrefix(prefix netip.Prefix, entries []RIBEntry) error {
	if err := rw.writeIndex(); err != nil {
		return err
	}
	for _, e := range entries {
		if int(e.PeerIndex) >= len(rw.index.Peers) {
			return fmt.Errorf("mrt: RIB entry peer index %d out of range (have %d peers)",
				e.PeerIndex, len(rw.index.Peers))
		}
	}
	sub := uint16(SubtypeRIBIPv4Unicast)
	if prefix.Addr().Is6() {
		sub = SubtypeRIBIPv6Unicast
	}
	rec := &Record{
		Timestamp: rw.timestamp,
		Type:      TypeTableDumpV2,
		Subtype:   sub,
		Body:      &RIB{Sequence: rw.seq, Prefix: prefix, Entries: entries},
	}
	rw.seq++
	return rw.w.WriteRecord(rec)
}

// Flush writes the peer index table even if no prefixes were written.
func (rw *RIBWriter) Flush() error { return rw.writeIndex() }

// RIBReader iterates a TABLE_DUMP_V2 snapshot, resolving peer indexes
// through the PEER_INDEX_TABLE. Non-RIB records in the stream are
// skipped, but a stream that ends without a PEER_INDEX_TABLE — an
// empty file, a TABLE_DUMP (v1) dump, a BGP4MP update trace — is not a
// snapshot and ends with an error, not io.EOF.
type RIBReader struct {
	r     *Reader
	index *PeerIndexTable
	// current record being drained
	rib  *RIB
	next int
}

// NewRIBReader returns a flattening reader over an MRT stream.
func NewRIBReader(r io.Reader) *RIBReader {
	return &RIBReader{r: NewReader(r)}
}

// Entry is one flattened (prefix, peer, route) tuple.
type Entry struct {
	Prefix     netip.Prefix
	Peer       Peer
	Originated time.Time
	RIBEntry   *RIBEntry
}

// Next returns the next flattened entry, or io.EOF at the end of a
// snapshot.
func (rr *RIBReader) Next() (*Entry, error) {
	for {
		if rr.rib != nil && rr.next < len(rr.rib.Entries) {
			e := &rr.rib.Entries[rr.next]
			rr.next++
			if rr.index == nil {
				return nil, fmt.Errorf("mrt: RIB entry before PEER_INDEX_TABLE")
			}
			if int(e.PeerIndex) >= len(rr.index.Peers) {
				return nil, fmt.Errorf("mrt: RIB entry peer index %d out of range", e.PeerIndex)
			}
			return &Entry{
				Prefix:     rr.rib.Prefix,
				Peer:       rr.index.Peers[e.PeerIndex],
				Originated: e.Originated,
				RIBEntry:   e,
			}, nil
		}
		rec, err := rr.r.Next()
		if err == io.EOF && rr.index == nil {
			return nil, fmt.Errorf("mrt: stream holds no TABLE_DUMP_V2 PEER_INDEX_TABLE")
		}
		if err != nil {
			return nil, err
		}
		switch body := rec.Body.(type) {
		case *PeerIndexTable:
			rr.index = body
		case *RIB:
			rr.rib, rr.next = body, 0
		default:
			// skip unrelated records
		}
	}
}

// PeerIndex returns the snapshot's peer table once it has been read.
func (rr *RIBReader) PeerIndex() *PeerIndexTable { return rr.index }
