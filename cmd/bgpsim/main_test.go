package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/topology"
)

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// TestUnknownFormatIsRefusedBeforeAnythingIsTouched: a mistyped -format
// used to surface only after the simulation had run and os.Create had
// truncated -o. It must fail before the topology is even opened (the
// -topo named here does not exist, so reaching it would report that
// instead) and leave an existing output file byte for byte.
func TestUnknownFormatIsRefusedBeforeAnythingIsTouched(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "paths.txt")
	precious := []byte("rv2|192.0.2.0/24|1 2 3\n")
	if err := os.WriteFile(out, precious, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-topo", filepath.Join(dir, "no-such-topology"), "-format", "typo", "-o", out},
		nopCloser{io.Discard}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown format "typo"`) {
		t.Fatalf("err = %v, want the unknown-format refusal", err)
	}
	if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, precious) {
		t.Fatalf("-o file after the refused run = %q (err %v), want it untouched", got, err)
	}
}

// TestBothFormatsStillWrite drives the two accepted formats end to end,
// one to -o and one to stdout.
func TestBothFormatsStillWrite(t *testing.T) {
	dir := t.TempDir()
	p := topology.DefaultParams(3)
	p.ASes = 120
	topoFile := filepath.Join(dir, "topo.txt")
	f, err := os.Create(topoFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.Generate(p).Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "paths.txt")
	if err := run([]string{"-topo", topoFile, "-vps", "6", "-o", out}, nopCloser{io.Discard}, io.Discard); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(out)
	if err != nil || !bytes.HasPrefix(text, []byte("sim-rv2|")) {
		t.Fatalf("text corpus starts %.40q (err %v)", text, err)
	}
	var rib bytes.Buffer
	if err := run([]string{"-topo", topoFile, "-vps", "6", "-format", "mrt"}, nopCloser{&rib}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if rib.Len() == 0 {
		t.Fatal("-format mrt wrote nothing to stdout")
	}
}

// TestCycleErrorNamesTheCommandOnce: the simulator's errors begin with
// "bgpsim:" already, so the line a refused -topo prints must carry it
// once, where it used to read "bgpsim: bgpsim: AS 2 is on ...". An
// error of the command's own still gets the prefix.
func TestCycleErrorNamesTheCommandOnce(t *testing.T) {
	dir := t.TempDir()
	// AS 1 is a stub below the provider cycle 2 > 3 > 4 > 2.
	topoFile := filepath.Join(dir, "topo.txt")
	text := "A|1|stub|0\nA|2|transit|0\nA|3|transit|0\nA|4|transit|0\n" +
		"R|2|1|p2c\nR|2|3|p2c\nR|3|4|p2c\nR|4|2|p2c\n"
	if err := os.WriteFile(topoFile, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}

	err := run([]string{"-topo", topoFile, "-vps", "2", "-o", filepath.Join(dir, "paths.txt")}, nopCloser{io.Discard}, io.Discard)
	if err == nil {
		t.Fatal("a topology with a provider cycle was simulated")
	}
	if got, want := errorLine(err), "bgpsim: AS 2 is on a provider (p2c) cycle"; got != want {
		t.Errorf("error line %q, want %q", got, want)
	}
	if got, want := errorLine(run(nil, nopCloser{io.Discard}, io.Discard)), "bgpsim: -topo is required"; got != want {
		t.Errorf("error line %q, want %q", got, want)
	}
}
