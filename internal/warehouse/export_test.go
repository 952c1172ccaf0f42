package warehouse

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/asrank-go/asrank/internal/topology"
)

// TailFaults names the corruptions SealedFaultyDelta can make. Each
// passes framing, checksums and every column decoder, and fails the
// replay late: in the AS merge, the link rebuild, or the walk of the
// cone XOR gaps.
var TailFaults = []string{"duplicate xor bit", "xor bit out of range", "removed AS absent", "changed link absent"}

// SealedFaultyDelta encodes next as delta epoch id against prev with
// one column replaced by the named fault, sealed like any segment:
// valid block CRCs and trailer, whose hash (hex) is returned for the
// manifest. It exists for the external test package, which can reach
// apiserver but not the encoder.
func SealedFaultyDelta(prev, next *Snapshot, id uint32, fault string) (img []byte, hash string) {
	img, sum := encodeSegment(kindDelta, id, id-1, faultyCols(prev, next, fault))
	return img, fmt.Sprintf("%016x", sum)
}

// faultyCols is next's delta column set against prev with the named
// fault in it.
func faultyCols(prev, next *Snapshot, fault string) []segColumn {
	n := len(next.ASNs)
	words := uint64(wordsPerRow(n) * n)
	var col byte
	var payload []byte
	switch fault {
	case "duplicate xor bit":
		col, payload = dcolConeXor, binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, words), 7), 0)
	case "xor bit out of range":
		col, payload = dcolConeXor, binary.AppendUvarint(binary.AppendUvarint(nil, words), words*64)
	case "removed AS absent":
		col, payload = dcolRemovedASNs, encodeAscendingU32(nil, []uint32{prev.ASNs[len(prev.ASNs)-1] + 1000})
	case "changed link absent":
		// A pair no link of next holds was not carried over from prev.
		b := int32(n - 1)
		for slices.ContainsFunc(next.Links, func(l LinkRec) bool { return l.A == 0 && l.B == b }) {
			b--
		}
		l := LinkRec{A: 0, B: b, Rel: topology.P2P, Step: next.Links[0].Step}
		col, payload = dcolLinksChg, encodeLinks(nil, []LinkRec{l}, newStepTable(next.Links))
	default:
		panic("unknown fault " + fault)
	}
	return withColumn(deltaCols(prev, next), col, payload)
}
