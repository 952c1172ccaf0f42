package apiserver

import (
	"net/http"

	"github.com/asrank-go/asrank/internal/warehouse"
)

// Time-travel routes (all GET, all served through serveRoute like the
// snapshot routes):
//
//	/api/v1/epochs                     every stored epoch: id, label, sizes, hashes
//	/api/v1/asns/{asn}/history         one AS across all epochs: rank, cone, changes
//	/api/v1/diff?from=&to=             net relationship changes between two epochs
//
// They serve from the warehouse's in-memory History index — folded
// from the stored deltas, never by re-running inference — under the
// warehouse chain ETag: a strong validator over every epoch's content
// hash, so appending an epoch (or recovery dropping one) invalidates
// all cached time-travel responses together while leaving the
// per-snapshot ETag of the point-lookup routes untouched.

// timeTravel binds the history routes to a store. Each request reads
// the store's current History pointer, so handlers observe appends
// without any rebuild.
type timeTravel struct {
	store *warehouse.Store
}

// epochsResponse is the JSON shape of /epochs.
type epochsResponse struct {
	ETag   string                `json:"etag"`
	Epochs []warehouse.EpochInfo `json:"epochs"`
}

func (tt *timeTravel) handleEpochs(w http.ResponseWriter, r *http.Request) {
	h := tt.store.History()
	tag := []string{h.ETag()}
	if notModified(w, r, tag) {
		return
	}
	eps := h.Epochs()
	if eps == nil {
		eps = []warehouse.EpochInfo{}
	}
	setTag(w.Header(), tag)
	writeJSON(w, wantPretty(r), epochsResponse{ETag: tag[0], Epochs: eps})
}

// historyResponse is the JSON shape of /asns/{asn}/history.
type historyResponse struct {
	ASN    uint32               `json:"asn"`
	Epochs []warehouse.ASNEpoch `json:"epochs"`
}

func (tt *timeTravel) handleHistory(w http.ResponseWriter, r *http.Request) {
	asn, ok := parseASN(r.PathValue("asn"))
	if !ok {
		writeError(w, http.StatusBadRequest, "bad AS number")
		return
	}
	h := tt.store.History()
	tag := []string{h.ETag()}
	if notModified(w, r, tag) {
		return
	}
	epochs := h.ASN(asn)
	seen := false
	for _, e := range epochs {
		if e.Present {
			seen = true
			break
		}
	}
	if !seen {
		writeError(w, http.StatusNotFound, "AS not observed in any stored epoch")
		return
	}
	setTag(w.Header(), tag)
	writeJSON(w, wantPretty(r), historyResponse{ASN: asn, Epochs: epochs})
}

// diffResponse is the JSON shape of /diff.
type diffResponse struct {
	From    uint32                `json:"from"`
	To      uint32                `json:"to"`
	Changes []warehouse.RelChange `json:"changes"`
}

func (tt *timeTravel) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, ok1 := parseASN(q.Get("from"))
	to, ok2 := parseASN(q.Get("to"))
	if !ok1 || !ok2 {
		writeError(w, http.StatusBadRequest, "from and to must be epoch ids (integers)")
		return
	}
	h := tt.store.History()
	tag := []string{h.ETag()}
	if notModified(w, r, tag) {
		return
	}
	changes, err := h.Diff(from, to)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if changes == nil {
		changes = []warehouse.RelChange{}
	}
	setTag(w.Header(), tag)
	writeJSON(w, wantPretty(r), diffResponse{From: from, To: to, Changes: changes})
}
