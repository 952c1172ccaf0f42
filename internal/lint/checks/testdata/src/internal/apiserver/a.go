// Stub of the production apiserver package for the immutablepub and
// lockdiscipline goldens: the frozen Data type, the Live.Swap publish
// sink, and the BuildSnapshot constructor.
package apiserver

import "internal/warehouse"

// Data mirrors the prebuilt response snapshot.
type Data struct {
	Etag string
}

// Live mirrors the atomic handler holder.
type Live struct{}

// Swap is the publish sink: d is read lock-free by every request after.
func (l *Live) Swap(d *Data) {}

// BuildSnapshot is a publish sink: its argument becomes served state.
func BuildSnapshot(sn *warehouse.Snapshot) *Data { return &Data{} }
