// In-package golden for immutablepub rule 2: inside the frozen type's
// own package, writes are legal during construction and become
// findings only after the value flows into a publish sink — including
// through aliases taken after publication.
package warehouse

func constructThenPublish(st *Store) {
	sn := &Snapshot{}
	sn.Epoch = 1 // construction: clean
	sn.Rel = append(sn.Rel, 0)
	_ = st.Append(sn)
	sn.Epoch = 2 // want "after the value flowed into a publish sink"
}

func aliasAfterPublish(st *Store) {
	sn := &Snapshot{}
	_ = st.Append(sn)
	alias := sn
	alias.Rel = nil // want "after the value flowed into a publish sink"
}

func composeIsASink() {
	sn := &Snapshot{Epoch: 7}
	derived := Compose(sn)
	sn.Rel = nil // want "after the value flowed into a publish sink"
	_ = derived
}

func excusedRepublish(st *Store) {
	sn := &Snapshot{}
	_ = st.Append(sn)
	sn.Epoch = 3 //lint:ignore immutablepub single-writer epoch restamp happens before the reader handoff
}

//lint:ignore immutablepub no frozen write on the covered line // want "unused //lint:ignore directive"
func neverPublished() {
	sn := &Snapshot{}
	sn.Epoch = 4 // never flows into a sink: clean
	_ = sn
}
