package experiments

import (
	"cmp"
	"encoding/json"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/apiserver"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// tiedSnapshot hand-builds an epoch over ASes 100, 200, … whose cone
// sizes tie in groups and whose transit degrees order each group
// against ASN order, so a reader breaking ties by ASN disagrees with AS
// Rank. Row p's cone is positions [0, sizes[p]).
func tiedSnapshot(sizes, transitDegree []int32) *warehouse.Snapshot {
	n := len(sizes)
	s := &warehouse.Snapshot{
		TransitDegree: transitDegree,
		Degree:        slices.Clone(transitDegree),
		ConePrefixes:  make([]int64, n),
		PathCount:     int64(n),
	}
	wps := (n + 63) / 64
	s.ConeWords = make([]uint64, n*wps)
	for p := range n {
		s.ASNs = append(s.ASNs, uint32(100*(p+1)))
		for m := range int(sizes[p]) {
			s.ConeWords[p*wps+m>>6] |= 1 << (m & 63)
		}
	}
	return s
}

// referenceRanks is the AS Rank comparator — cone size descending, then
// transit degree descending, then position (ASN) ascending — as a
// comparison sort, the reference cone_test.go holds RankPositions to.
// It returns each position's 1-based rank.
func referenceRanks(sizes, transitDegree []int32) []int {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(sizes[b], sizes[a]), cmp.Compare(transitDegree[b], transitDegree[a]), cmp.Compare(a, b))
	})
	ranks := make([]int, len(sizes))
	for r, p := range order {
		ranks[p] = r + 1
	}
	return ranks
}

// servedRank is the rank /api/v1/asns/{asn} serves for asn.
func servedRank(t *testing.T, live *apiserver.Live, asn uint32) int {
	t.Helper()
	rec := httptest.NewRecorder()
	live.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/asns/"+strconv.FormatUint(uint64(asn), 10), nil))
	var sum struct {
		Rank int `json:"rank"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); rec.Code != 200 || err != nil {
		t.Fatalf("AS%d: status %d, %v: %s", asn, rec.Code, err, rec.Body)
	}
	return sum.Rank
}

// TestRankReadersAgreeOnTies: over epochs whose cone-size ties only
// transit degree breaks, every reader of an epoch's rank — the served
// summary, History before and after a reopen, and R9's trajectory table
// — gives each AS the comparator reference's rank.
func TestRankReadersAgreeOnTies(t *testing.T) {
	sizes := [][]int32{{3, 3, 3, 1, 1, 5, 5, 2}, {2, 4, 4, 4, 1, 1, 6, 6}}
	tds := [][]int32{{1, 2, 3, 4, 5, 6, 7, 8}, {8, 1, 2, 3, 5, 4, 6, 7}}
	var snaps []*warehouse.Snapshot
	var want [][]int
	for e := range sizes {
		snaps = append(snaps, tiedSnapshot(sizes[e], tds[e]))
		want = append(want, referenceRanks(sizes[e], tds[e]))
	}

	dir := t.TempDir()
	st, err := warehouse.Open(dir, warehouse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for e, s := range snaps {
		if _, err := st.Append(s, strconv.Itoa(e), ""); err != nil {
			t.Fatal(err)
		}
	}
	re, err := warehouse.Open(dir, warehouse.Options{})
	if err != nil {
		t.Fatal(err)
	}

	l := NewLab(Config{})
	l.series, l.snaps = make([]*topology.Topology, len(snaps)), snaps
	r9 := map[uint32][]string{} // AS → its trajectory cells
	for _, line := range strings.Split(R09RankStability(l).Sections[1].String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			if asn, err := strconv.ParseUint(f[0], 10, 32); err == nil {
				r9[uint32(asn)] = f[1:]
			}
		}
	}

	live := apiserver.NewLive(nil, apiserver.Config{Registry: obs.NewRegistry()})
	for e, s := range snaps {
		live.Swap(apiserver.BuildSnapshot(s))
		for p, asn := range s.ASNs {
			w := want[e][p]
			if got := servedRank(t, live, asn); got != w {
				t.Errorf("epoch %d AS%d: summary rank %d, want %d", e, asn, got, w)
			}
			for name, h := range map[string]*warehouse.History{"appended": st.History(), "reopened": re.History()} {
				if got := h.ASN(asn)[e].Rank; int(got) != w {
					t.Errorf("epoch %d AS%d: %s History rank %d, want %d", e, asn, name, got, w)
				}
			}
			if cells := r9[asn]; len(cells) != len(snaps) || cells[e] != strconv.Itoa(w) {
				t.Errorf("epoch %d AS%d: R9 trajectory %v, want rank %d", e, asn, cells, w)
			}
		}
	}
}
