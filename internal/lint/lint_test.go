package lint

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestSortFindingsTotalOrder pins the determinism contract: findings
// arriving in any interleaving sort to one byte-stable order keyed by
// file, then offset, then analyzer, then message.
func TestSortFindingsTotalOrder(t *testing.T) {
	scrambled := []finding{
		{File: "b.go", offset: 10, Analyzer: "zz", Message: "m"},
		{File: "a.go", offset: 50, Analyzer: "aa", Message: "m"},
		{File: "a.go", offset: 10, Analyzer: "bb", Message: "m"},
		{File: "a.go", offset: 10, Analyzer: "aa", Message: "n"},
		{File: "a.go", offset: 10, Analyzer: "aa", Message: "m"},
	}
	sortFindings(scrambled)
	want := []finding{
		{File: "a.go", offset: 10, Analyzer: "aa", Message: "m"},
		{File: "a.go", offset: 10, Analyzer: "aa", Message: "n"},
		{File: "a.go", offset: 10, Analyzer: "bb", Message: "m"},
		{File: "a.go", offset: 50, Analyzer: "aa", Message: "m"},
		{File: "b.go", offset: 10, Analyzer: "zz", Message: "m"},
	}
	for i := range want {
		if scrambled[i] != want[i] {
			t.Errorf("position %d: got %+v, want %+v", i, scrambled[i], want[i])
		}
	}
}

// TestRunReportsAndExitCodes drives the real CLI: a small clean
// package exits 0 with empty text output; the //lint:ignore golden
// exits 1 with one go-vet-style line per finding, in position order.
func TestRunReportsAndExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Run([]string{"./internal/pool"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stdout=%s stderr=%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run produced text findings:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	const golden = "internal/lint/checks/testdata/src/suppress"
	if code := Run([]string{"./" + golden}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1; stderr=%s", code, stderr.String())
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		var ln, col int
		var analyzer string
		rest, ok := strings.CutPrefix(line, golden+"/a.go:")
		if _, err := fmt.Sscanf(rest, "%d:%d: %s", &ln, &col, &analyzer); !ok || err != nil {
			t.Fatalf("line %q is not file:line:col: analyzer: message", line)
		}
		got = append(got, fmt.Sprintf("%d %s", ln, analyzer))
	}
	want := []string{"12 noderivedgo:", "20 lint:", "26 lint:", "27 noderivedgo:", "31 lint:", "32 noderivedgo:"}
	if !slices.Equal(got, want) {
		t.Errorf("findings = %q, want %q", got, want)
	}
}

// TestRunFailureExitCode pins the exit-code contract's failure leg: a
// run that cannot load its packages, or is given a flag it does not
// have, exits 2 and prints no findings.
func TestRunFailureExitCode(t *testing.T) {
	for _, args := range [][]string{{"./internal/nosuchpkg"}, {"-nosuchflag", "./internal/pool"}} {
		var stdout, stderr bytes.Buffer
		if code := Run(args, &stdout, &stderr); code != 2 {
			t.Errorf("Run(%q): exit code %d, want 2", args, code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("Run(%q): stdout=%q stderr=%q, want the error on stderr only", args, stdout.String(), stderr.String())
		}
	}
}
