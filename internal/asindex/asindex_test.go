package asindex

import (
	"reflect"
	"testing"
)

func TestIndexInterning(t *testing.T) {
	ix := New([]uint32{30, 10, 20, 10, 30})
	if ix.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ix.Len())
	}
	if !reflect.DeepEqual(ix.ASNs(), []uint32{10, 20, 30}) {
		t.Errorf("ASNs = %v", ix.ASNs())
	}
	for want, asn := range []uint32{10, 20, 30} {
		p, ok := ix.Pos(asn)
		if !ok || p != int32(want) {
			t.Errorf("Pos(%d) = %d,%v, want %d", asn, p, ok, want)
		}
		if ix.ASN(int32(want)) != asn {
			t.Errorf("ASN(%d) = %d, want %d", want, ix.ASN(int32(want)), asn)
		}
	}
	if _, ok := ix.Pos(99); ok {
		t.Error("Pos(99) should miss")
	}
}
