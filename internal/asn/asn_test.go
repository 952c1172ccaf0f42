package asn

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestIsReserved(t *testing.T) {
	tests := []struct {
		a    uint32
		want bool
	}{
		{0, true},
		{1, false},
		{174, false},
		{3356, false},
		{Trans, true},
		{23455, false},
		{23457, false},
		{Doc16First, true},
		{Doc16Last, true},
		{Doc16First - 1, false},
		{Private16First, true},
		{Private16Last, true},
		{Last16, true},
		{Doc32First, true},
		{Doc32Last, true},
		{Doc32Last + 1, false},
		{Private32First, true},
		{Private32First - 1, false},
		{Private32Last, true},
		{Last32, true},
		{394977, false},
	}
	for _, tt := range tests {
		if got := IsReserved(tt.a); got != tt.want {
			t.Errorf("IsReserved(%d) = %v, want %v", tt.a, got, tt.want)
		}
	}
}

func TestIsPrivate(t *testing.T) {
	for _, a := range []uint32{Private16First, Private16Last, Private32First, Private32Last} {
		if !IsPrivate(a) {
			t.Errorf("IsPrivate(%d) = false, want true", a)
		}
	}
	for _, a := range []uint32{1, Last16, Doc16First, Private32First - 1} {
		if IsPrivate(a) {
			t.Errorf("IsPrivate(%d) = true, want false", a)
		}
	}
}

func TestIsDocumentation(t *testing.T) {
	for _, a := range []uint32{Doc16First, Doc16Last, Doc32First, Doc32Last} {
		if !IsDocumentation(a) {
			t.Errorf("IsDocumentation(%d) = false, want true", a)
		}
	}
	if IsDocumentation(1) || IsDocumentation(Private16First) {
		t.Error("IsDocumentation misclassified a non-documentation ASN")
	}
}

func TestParse(t *testing.T) {
	tests := []struct {
		in      string
		want    uint32
		wantErr bool
	}{
		{"174", 174, false},
		{"AS174", 174, false},
		{"as174", 174, false},
		{"aS174", 174, false},
		{"1.14", 65550, false},
		{"AS1.14", 65550, false},
		{"65535.65535", 4294967295, false},
		{"4294967295", 4294967295, false},
		{"4294967296", 0, true},
		{"65536.0", 0, true},
		{"0.65536", 0, true},
		{"", 0, true},
		{"AS", 0, true},
		{"abc", 0, true},
		{"1.2.3", 0, true},
		{"-1", 0, true},
	}
	for _, tt := range tests {
		got, err := Parse(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("Parse(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("Parse(%q) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

// TestParseASDot: the asdot spellings (RFC 5396) of 2-byte and 4-byte ASNs
// parse to the ASN they name.
func TestParseASDot(t *testing.T) {
	tests := []struct {
		in   string
		want uint32
	}{
		{"0", 0},
		{"174", 174},
		{"65535", 65535},
		{"1.0", 65536},
		{"1.14", 65550},
		{"65535.65535", 4294967295},
	}
	for _, tt := range tests {
		if got, err := Parse(tt.in); err != nil || got != tt.want {
			t.Errorf("Parse(%q) = %d, %v; want %d", tt.in, got, err, tt.want)
		}
	}
}

// TestParseFormatRoundTrip: Parse reads back any ASN written in asplain
// or in asdot (RFC 5396: high.low).
func TestParseFormatRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		plain, err1 := Parse(strconv.FormatUint(uint64(a), 10))
		dot, err2 := Parse(strconv.Itoa(int(a>>16)) + "." + strconv.Itoa(int(a&0xffff)))
		return err1 == nil && err2 == nil && plain == a && dot == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
