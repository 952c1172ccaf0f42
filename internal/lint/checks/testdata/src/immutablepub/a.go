// Golden input for immutablepub rule 1: outside the frozen type's own
// package every write through it is a finding — construction happens
// in-package, so a foreign write is by definition post-construction.
// The //lint:ignore immutablepub escape is exercised too.
package immutablepub

import (
	"internal/apiserver"
	"internal/cone"
	"internal/warehouse"
)

func mutateForeign(sn *warehouse.Snapshot, rs *cone.Rows, d *apiserver.Data) {
	sn.Rel = nil      // want "write to Snapshot.Rel outside package warehouse"
	rs.Members[0] = 1 // want "write to Rows.Members outside package cone"
	d.Etag = ""       // want "write to Data.Etag outside package apiserver"
}

func mutateMap(r *cone.Relations) {
	delete(r.P2C, 1) // want "write to Relations.P2C outside package cone"
	r.P2C[2] = nil   // want "write to Relations.P2C outside package cone"
}

func growForeign(sn *warehouse.Snapshot) {
	sn.Epoch++ // want "write to Snapshot.Epoch outside package warehouse"
}

func excusedForeign(sn *warehouse.Snapshot) {
	sn.Epoch = 9 //lint:ignore immutablepub migration shim rewrites epochs before first publish
}

func reasonlessForeign(sn *warehouse.Snapshot) {
	// The reason is mandatory: a bare directive is malformed and
	// excuses nothing.
	//lint:ignore immutablepub // want "malformed //lint:ignore directive"
	sn.Epoch = 10 // want "write to Snapshot.Epoch outside package warehouse"
}

func readOnly(sn *warehouse.Snapshot, rs *cone.Rows) uint64 {
	// Reads and local copies are free; only writes through the frozen
	// value are findings.
	local := sn.Epoch
	member := rs.Members[0]
	return local + uint64(member)
}

func freshLocalType() {
	// A locally built value of a foreign frozen type is still foreign:
	// the package boundary, not the allocation site, is the rule.
	sn := warehouse.Snapshot{}
	sn.Epoch = 1 // want "write to Snapshot.Epoch outside package warehouse"
	_ = sn
}
