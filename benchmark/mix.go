package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// reqKind enumerates the request mix.
type reqKind int

const (
	kindPoint reqKind = iota
	kindContains
	kindList
	kindLinks
	kindCone
	kindBulk
	kindClique
	kindHealth
	kindHistory
	kindEpochs
	kindDiff
	numKinds
)

var kindNames = [numKinds]string{
	"point", "contains", "list", "links", "cone", "bulk", "clique", "health",
	"history", "epochs", "diff",
}

// kindSpans are the per-kind span names, built once so that the timed
// request loop does not concatenate strings.
var kindSpans = func() (names [numKinds]string) {
	for k, name := range kindNames {
		names[k] = "apiserver." + name
	}
	return names
}()

// mixWeights is each kind's share of traffic, summing to 100: asbench's
// time-travel mix with one point lookup in thirty turned into a /diff.
var mixWeights = [numKinds]int{30, 14, 13, 10, 10, 5, 5, 4, 5, 3, 1}

// conditionalPerMille is how many data requests in a thousand carry
// If-None-Match, as a well-behaved cache's would.
const conditionalPerMille = 500

// timeTravel reports whether the kind is served from the warehouse
// history, and therefore validates against the chain ETag and not the
// snapshot's.
func (k reqKind) timeTravel() bool {
	return k == kindHistory || k == kindEpochs || k == kindDiff
}

// lcg is a deterministic generator (Knuth MMIX constants): no shared
// state, the same stream for the same seed.
type lcg struct{ x uint64 }

func newLCG(seed int64, stream int) lcg {
	return lcg{x: uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream+1)}
}

func (r *lcg) next() uint64 {
	r.x = r.x*6364136223846793005 + 1442695040888963407
	return r.x >> 11
}

func (r *lcg) intn(n int) int { return int(r.next() % uint64(n)) }

// request is one drawn request.
type request struct {
	kind        reqKind
	path        string // path and query, from the API root
	conditional bool   // send If-None-Match
}

// mix draws requests against a sample of ranked ASNs and a number of
// stored epochs.
type mix struct {
	rng    lcg
	asns   []uint32
	epochs func() int // stored epochs /diff may name
}

func (m *mix) pick() string {
	return strconv.FormatUint(uint64(m.asns[m.rng.intn(len(m.asns))]), 10)
}

// next draws one request from the weighted mix.
func (m *mix) next() request {
	roll, kind := m.rng.intn(100), kindHealth
	for k, acc := reqKind(0), 0; k < numKinds; k++ {
		acc += mixWeights[k]
		if roll < acc {
			kind = k
			break
		}
	}
	epochs := m.epochs()
	if kind == kindDiff && epochs < 2 {
		kind = kindEpochs // nothing to diff yet
	}
	req := request{kind: kind}
	switch kind {
	case kindPoint:
		req.path = "/api/v1/asns/" + m.pick()
	case kindContains:
		req.path = "/api/v1/asns/" + m.pick() + "/cone/contains/" + m.pick()
	case kindList:
		req.path = "/api/v1/asns?limit=50&cursor=" + strconv.Itoa(m.rng.intn(len(m.asns)))
	case kindLinks:
		req.path = "/api/v1/asns/" + m.pick() + "/links"
	case kindCone:
		req.path = "/api/v1/asns/" + m.pick() + "/cone?limit=200"
	case kindBulk:
		ids := make([]string, 0, 8)
		for i := 0; i < 8; i++ {
			ids = append(ids, m.pick())
		}
		req.path = "/api/v1/asns?ids=" + strings.Join(ids, ",")
	case kindClique:
		req.path = "/api/v1/clique"
	case kindHistory:
		req.path = "/api/v1/asns/" + m.pick() + "/history"
	case kindEpochs:
		req.path = "/api/v1/epochs"
	case kindDiff:
		from := m.rng.intn(epochs - 1)
		to := from + 1 + m.rng.intn(epochs-1-from)
		req.path = "/api/v1/diff?from=" + strconv.Itoa(from) + "&to=" + strconv.Itoa(to)
	default:
		req.path = "/api/v1/health"
	}
	req.conditional = kind != kindHealth && m.rng.intn(1000) < conditionalPerMille
	return req
}

// apiClient is one API consumer on one HTTP connection. snapTag and
// chainTag are the validators it revalidates with.
type apiClient struct {
	hc       *http.Client
	base     string
	snapTag  string
	chainTag string
}

func newAPIClient(base string) *apiClient {
	dialer := &net.Dialer{Timeout: 10 * time.Second}
	return &apiClient{base: base, hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext:         dialer.DialContext,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
		},
	}}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// response is what a request came back with.
type response struct {
	status int
	etag   string
	bytes  int64
	err    error
}

// get issues one GET and drains the body.
func (c *apiClient) get(path, ifNoneMatch string) response {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return response{err: err}
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{err: err}
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return response{status: resp.StatusCode, etag: resp.Header.Get("ETag"), bytes: n, err: err}
}

// do issues a drawn request, revalidating against the validator of the
// route's class when the draw says so.
func (c *apiClient) do(r request) response {
	tag := ""
	if r.conditional {
		tag = c.validator(r.kind)
	}
	return c.get(r.path, tag)
}

// validator returns the ETag a response to a request of kind k must
// carry, which is also what the client revalidates it with.
func (c *apiClient) validator(k reqKind) string {
	if k.timeTravel() {
		return c.chainTag
	}
	return c.snapTag
}

// sampleASNs fetches the top of the ranking to aim lookups at, with
// the snapshot ETag it was served under.
func sampleASNs(c *apiClient, limit int) (asns []uint32, etag string, err error) {
	resp, err := c.hc.Get(c.base + "/api/v1/asns?limit=" + strconv.Itoa(limit))
	if err != nil {
		return nil, "", fmt.Errorf("sample ranking: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("sample ranking: status %d", resp.StatusCode)
	}
	var page struct {
		Data []struct {
			ASN uint32 `json:"asn"`
		} `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return nil, "", fmt.Errorf("sample ranking: %w", err)
	}
	for _, d := range page.Data {
		asns = append(asns, d.ASN)
	}
	if len(asns) == 0 {
		return nil, "", fmt.Errorf("sample ranking: empty")
	}
	return asns, resp.Header.Get("ETag"), nil
}
