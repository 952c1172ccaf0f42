// Stub of the production cone package: the two frozen types the
// immutablepub golden writes through from a foreign package.
package cone

// Rows mirrors the packed customer-cone member lists.
type Rows struct {
	Members []int32
}

// Relations mirrors the frozen relationship table.
type Relations struct {
	P2C map[uint32][]uint32
}
