package cone

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WritePPDC renders cone membership in the CAIDA "ppdc-ases" convention:
// one line per AS, the AS number followed by every cone member
// (including itself), space separated, with '#' comment lines first.
// ASes are emitted in ascending order, members ascending per line —
// the order the rows already have.
func WritePPDC(w io.Writer, cones *Rows, comments ...string) error {
	bw := bufio.NewWriter(w)
	for _, c := range comments {
		fmt.Fprintf(bw, "# %s\n", c)
	}
	var num []byte
	for i, asn := range cones.idx.ASNs() {
		num = strconv.AppendUint(num[:0], uint64(asn), 10)
		for _, m := range cones.Row(int32(i)) {
			num = append(num, ' ')
			num = strconv.AppendUint(num, uint64(cones.idx.ASN(m)), 10)
		}
		num = append(num, '\n')
		if _, err := bw.Write(num); err != nil {
			return err
		}
	}
	return bw.Flush()
}
