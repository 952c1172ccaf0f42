package trace

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// get serves one GET of target through h and returns the recorder.
func get(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// TestFlightHandlerServesChromeAndTree: /debug/flight serves the ring as
// Chrome JSON that passes the schema check, and ?format=tree renders the
// same spans as the indented tree.
func TestFlightHandlerServesChromeAndTree(t *testing.T) {
	tr := New()
	ctx, root := tr.StartSpan(context.Background(), "run.root")
	root.SetAttrInt("ases", 200)
	_, child := StartSpan(ctx, "run.child")
	child.End()
	root.End()
	h := FlightHandler(tr)

	rec := get(h, "/debug/flight")
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("JSON: status %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if err := CheckChrome(rec.Body.Bytes()); err != nil {
		t.Fatalf("served trace fails schema check: %v\n%s", err, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"run.child"`) {
		t.Errorf("served trace lacks run.child:\n%s", rec.Body)
	}

	rec = get(h, "/debug/flight?format=tree")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("tree: Content-Type %q", ct)
	}
	for _, want := range []string{"run.root", "ases=200", "  run.child"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("tree lacks %q:\n%s", want, rec.Body)
		}
	}
}

// TestCaptureHandlerServesTheWindow: /debug/trace?sec=1 serves the spans
// that ended during its one-second window, not the ones before it, as
// Chrome JSON that passes the schema check; a bad sec is refused.
func TestCaptureHandlerServesTheWindow(t *testing.T) {
	tr := New()
	_, before := tr.StartSpan(context.Background(), "before.capture")
	before.End()
	h := CaptureHandler(tr)

	if rec := get(h, "/debug/trace?sec=0"); rec.Code != http.StatusBadRequest {
		t.Errorf("sec=0: status %d, want 400", rec.Code)
	}

	served := make(chan *httptest.ResponseRecorder)
	go func() { served <- get(h, "/debug/trace?sec=1") }()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var rec *httptest.ResponseRecorder
	for rec == nil {
		select {
		case rec = <-served:
		case <-tick.C:
			_, s := tr.StartSpan(context.Background(), "during.capture")
			s.End()
		}
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if err := CheckChrome(rec.Body.Bytes()); err != nil {
		t.Fatalf("captured trace fails schema check: %v\n%s", err, rec.Body)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"during.capture"`) || strings.Contains(body, `"before.capture"`) {
		t.Errorf("capture holds the wrong spans:\n%s", body)
	}
}
