package checks_test

import (
	"testing"

	"github.com/asrank-go/asrank/internal/lint/checks"
	"github.com/asrank-go/asrank/internal/lint/linttest"
)

const src = "testdata/src"

func TestNoDerivedGo(t *testing.T) {
	linttest.Run(t, src, checks.NoDerivedGo, "noderivedgo")
}

// TestNoDerivedGoPoolExempt proves the one sanctioned package stays
// silent: the golden internal/pool package spawns goroutines and the
// file carries zero want comments.
func TestNoDerivedGoPoolExempt(t *testing.T) {
	linttest.Run(t, src, checks.NoDerivedGo, "internal/pool")
}

func TestNoDeterminismLeak(t *testing.T) {
	linttest.Run(t, src, checks.NoDeterminismLeak, "internal/core")
}

// TestNoDeterminismLeakScope proves packages outside the deterministic
// set may use wall clock and global rand freely.
func TestNoDeterminismLeakScope(t *testing.T) {
	linttest.Run(t, src, checks.NoDeterminismLeak, "plain")
}

func TestObsNames(t *testing.T) {
	linttest.Run(t, src, checks.ObsNames, "obsnames")
}

func TestErrWrap(t *testing.T) {
	linttest.Run(t, src, checks.ErrWrap, "errwrap")
}

func TestNoLockCopyAtomics(t *testing.T) {
	linttest.Run(t, src, checks.NoLockCopyAtomics, "nolockcopyatomics")
}

// TestSuppression pins the //lint:ignore contract end to end: a
// standalone directive silences exactly one diagnostic on the next
// line (its twin on the line after is still reported), a trailing
// directive covers its own line, an unused directive is reported, and
// a reasonless directive is malformed.
func TestSuppression(t *testing.T) {
	linttest.Run(t, src, checks.NoDerivedGo, "suppress")
}

// TestImmutablePubForeign pins rule 1: outside the frozen type's own
// package, every write through it is a finding, and a reasoned
// //lint:ignore immutablepub is the only escape.
func TestImmutablePubForeign(t *testing.T) {
	linttest.Run(t, src, checks.ImmutablePub, "immutablepub")
}

// TestImmutablePubInPackage pins rule 2 on the warehouse golden:
// construction writes are free, writes after the value flows into a
// publish sink (Append, Compose) — including through aliases — are
// findings, and an ignore directive that excuses no write is reported.
func TestImmutablePubInPackage(t *testing.T) {
	linttest.Run(t, src, checks.ImmutablePub, "internal/warehouse")
}

// TestHotPathAlloc pins each allocation-forcing construct once inside
// a marked function, its clean counterpart alongside, the unmarked
// twin staying silent, and the AllocsPerRun cross-check.
func TestHotPathAlloc(t *testing.T) {
	linttest.Run(t, src, checks.HotPathAlloc, "hotpathalloc")
}

// TestLockDiscipline pins the interpreter's precision cases: the
// unlock-in-terminating-branch idiom checks clean, partial branches
// and post-release accesses are findings, writes need the exclusive
// flavor of an RWMutex, and publish sinks may not run under a lock.
func TestLockDiscipline(t *testing.T) {
	linttest.Run(t, src, checks.LockDiscipline, "lockdiscipline")
}

// TestAsrankAnnotations pins the directive grammar gate: every
// malformed or orphaned //asrank: form is one finding, well-formed
// forms are silent.
func TestAsrankAnnotations(t *testing.T) {
	linttest.Run(t, src, checks.AsrankAnnotations, "asrankdir")
}
