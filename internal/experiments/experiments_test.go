package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// testLab is a very small lab shared by the experiment smoke tests.
func testLab() *Lab {
	return NewLab(Config{Seed: 20130401, Scale: 300, VPs: 8, Snapshots: 3})
}

func TestEveryExperimentRuns(t *testing.T) {
	l := testLab()
	for _, id := range IDs() {
		fn := ByID(id)
		if fn == nil {
			t.Fatalf("no experiment for %s", id)
		}
		rep := fn(l)
		if rep.ID != id {
			t.Errorf("experiment %s reports ID %s", id, rep.ID)
		}
		if rep.Title == "" || len(rep.Sections) == 0 {
			t.Errorf("%s produced an empty report", id)
		}
		out := rep.String()
		if !strings.Contains(out, rep.Title) {
			t.Errorf("%s report missing title", id)
		}
		if len(out) < 50 {
			t.Errorf("%s report suspiciously short:\n%s", id, out)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if ByID("R99") != nil {
		t.Error("unknown ID should return nil")
	}
	if ByID("R01") == nil || ByID("R1") == nil {
		t.Error("zero-padded aliases should work")
	}
}

func TestLabCaching(t *testing.T) {
	l := testLab()
	if l.Topo() != l.Topo() {
		t.Error("Topo not cached")
	}
	if l.Sim() != l.Sim() {
		t.Error("Sim not cached")
	}
	if l.Infer() != l.Infer() {
		t.Error("Infer not cached")
	}
	c1, _ := l.Clean()
	c2, _ := l.Clean()
	if c1 != c2 {
		t.Error("Clean not cached")
	}
	if len(l.Series()) != 3 {
		t.Errorf("series length = %d", len(l.Series()))
	}
	if len(l.SeriesLabels()) != 3 || l.SeriesLabels()[2] != "2013" {
		t.Errorf("labels = %v", l.SeriesLabels())
	}
	if l.Corpus().Len() == 0 {
		t.Error("corpus empty")
	}
	if len(l.MRT()) == 0 {
		t.Error("MRT export empty")
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{ID: "RX", Title: "demo", Sections: []fmt.Stringer{Textf("hello %d\n", 42)}}
	out := rep.String()
	if !strings.Contains(out, "RX — demo") || !strings.Contains(out, "hello 42") {
		t.Errorf("rendering wrong:\n%s", out)
	}
}
