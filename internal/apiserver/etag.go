package apiserver

import (
	"net/http"
	"strings"
)

// Two ETag schemes share one conditional-GET pair. The snapshot routes
// carry one snapshot-wide strong validator (Data.etagHeader), because
// every response is a pure function of one immutable snapshot: a
// client that revalidates any cached response with If-None-Match gets
// a body-free 304 until the serving snapshot is swapped, at which point
// the tag changes and every cached entry misses together — exactly the
// invalidation granularity an atomically swapped snapshot has. The
// time-travel routes carry the warehouse chain ETag instead (see
// timetravel.go). Either way the tag travels as a one-element header
// value slice, so the snapshot routes never allocate one per request.

// headerJSON is a shared header value slice assigned by direct map
// index so the hot handlers never allocate a per-request []string.
// Keys must be in canonical MIME form (as http.Header.Set would
// produce) for the rest of net/http to see them.
var headerJSON = []string{"application/json"}

// setTag stamps the alloc-free headers of a JSON body: content type
// plus the validator tag (a one-element header value).
//
//asrank:hotpath
func setTag(h http.Header, tag []string) {
	h["Content-Type"] = headerJSON
	h["Etag"] = tag
}

// notModified answers a conditional request: when If-None-Match
// matches tag it writes a body-free 304 (with the tag, so caches
// refresh their metadata) and reports true. Allocation-free.
//
//asrank:hotpath
func notModified(w http.ResponseWriter, r *http.Request, tag []string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" || !etagMatch(inm, tag[0]) {
		return false
	}
	w.Header()["Etag"] = tag
	w.WriteHeader(http.StatusNotModified)
	return true
}

// etagMatch implements the If-None-Match comparison: a literal *, or
// any member of the comma-separated tag list equal to etag. Weak
// validators (W/ prefix) compare by the weak rule, i.e. the W/ is
// ignored — correct for GET revalidation. Substring operations only;
// no allocation.
//
//asrank:hotpath
func etagMatch(inm, etag string) bool {
	if inm == "*" {
		return true
	}
	for inm != "" {
		for len(inm) > 0 && (inm[0] == ' ' || inm[0] == '\t' || inm[0] == ',') {
			inm = inm[1:]
		}
		tag := inm
		if i := strings.IndexByte(inm, ','); i >= 0 {
			tag, inm = inm[:i], inm[i+1:]
		} else {
			inm = ""
		}
		tag = strings.TrimPrefix(strings.TrimSpace(tag), "W/")
		if tag == etag {
			return true
		}
	}
	return false
}
