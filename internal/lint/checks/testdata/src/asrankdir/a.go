// Golden input for asrankannotations: every way an //asrank: directive
// can be malformed or orphaned is seeded once, next to its well-formed
// counterpart. A typo'd annotation silently disables the invariant it
// was meant to carry, which is why grammar errors are findings.
package asrankdir

import "sync"

//asrank:hotpath
func wellFormedHot() {}

//asrank:hotpath please // want "takes no arguments"
func hotWithArgs() {}

//asrank:typo something // want "unknown //asrank: directive"
var afterUnknown = 1

//asrank:hotpath // want "orphaned //asrank:hotpath"
var notAFunction = 2

func retiredVerb() {
	x := 1
	//asrank:mutable use lint:ignore immutablepub // want "unknown //asrank: directive"
	_ = x
}

//asrank:guardedby mu // want "orphaned //asrank:guardedby"
func notAField() {}

type wellFormed struct {
	mu sync.Mutex
	//asrank:guardedby mu
	v int
}

type missingSibling struct {
	mu sync.Mutex
	//asrank:guardedby lock // want "not a field of the same struct"
	v int
}

type nonMutexGuard struct {
	flag bool
	//asrank:guardedby flag // want "not a sync.Mutex or sync.RWMutex"
	v int
}

type badArity struct {
	mu sync.Mutex
	//asrank:guardedby mu extra // want "want exactly one mutex name"
	v int
}

type selfGuard struct {
	//asrank:guardedby mu // want "cannot guard the mutex with itself"
	mu sync.Mutex
}

type embeddedGuard struct {
	mu sync.Mutex
	//asrank:guardedby mu // want "cannot annotate an embedded field"
	sync.Once
}

var (
	_ = wellFormed{}
	_ = missingSibling{}
	_ = nonMutexGuard{}
	_ = badArity{}
	_ = selfGuard{}
	_ = embeddedGuard{}
)
