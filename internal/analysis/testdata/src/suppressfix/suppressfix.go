// Command suppressfix seeds one violation per suppressible rule and
// suppresses every one of them with a reasoned //xfm:ignore, both
// trailing and standalone: the tree must report zero unsuppressed
// diagnostics.
package main

import (
	"sync"
	"time"
)

var a, b sync.Mutex

// ab takes a before b, standalone suppression form.
func ab() {
	a.Lock()
	defer a.Unlock()
	//xfm:ignore lock-order ba runs once at start-up, before any goroutine that calls ab exists
	b.Lock()
	b.Unlock()
}

// ba takes them the other way round.
func ba() {
	b.Lock()
	defer b.Unlock()
	a.Lock()
	a.Unlock()
}

// stamp reads the clock with a recorded justification, trailing form.
func stamp() time.Time {
	return time.Now() //xfm:ignore sim-determinism display-only timestamp, never folded into tables
}

// refStamp is what a test compares stamp against.
//
//xfm:ignore unreachable reference of TestStampMatchesRef
func refStamp() time.Time { return time.Time{} }

func main() {
	ba()
	ab()
	println(stamp().Unix())
}
