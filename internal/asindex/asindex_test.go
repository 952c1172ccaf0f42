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

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int32{0, 63, 64, 129} {
		if b.Contains(i) {
			t.Errorf("fresh bitset contains %d", i)
		}
		if !b.TrySet(i) {
			t.Errorf("TrySet(%d) on empty = false", i)
		}
		if b.TrySet(i) {
			t.Errorf("TrySet(%d) twice = true", i)
		}
		if !b.Contains(i) {
			t.Errorf("missing %d after set", i)
		}
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d, want 4", b.Count())
	}
	var got []int32
	b.ForEach(func(i int32) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int32{0, 63, 64, 129}) {
		t.Errorf("ForEach order = %v", got)
	}
}

func TestBitsetOrClone(t *testing.T) {
	a := NewBitset(100)
	b := NewBitset(100)
	a.Set(1)
	b.Set(99)
	c := a.Clone()
	c.Or(b)
	if !c.Contains(1) || !c.Contains(99) {
		t.Errorf("Or/Clone lost bits: %v", c)
	}
	if a.Contains(99) {
		t.Error("Clone aliases the original")
	}
}
