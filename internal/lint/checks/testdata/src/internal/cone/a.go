// Stub of the production cone package: the three frozen types the
// immutablepub golden writes through from a foreign package.
package cone

// BitSets mirrors the packed customer-cone bitset matrix.
type BitSets struct {
	Words []uint64
}

// Rows mirrors the packed customer-cone member lists.
type Rows struct {
	Members []int32
}

// Relations mirrors the frozen relationship table.
type Relations struct {
	P2C map[uint32][]uint32
}
