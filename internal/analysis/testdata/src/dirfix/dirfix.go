// Package dirfix exercises every malformed //xfm: directive shape; a
// typo in an annotation must surface as a diagnostic, never as a
// silently unenforced invariant.
package dirfix

import "sync"

// Box carries an annotation for a rule that no longer exists.
type Box struct {
	mu sync.Mutex
	a  int //xfm:guardedby mu
}

//xfm:hotpath
func Stale() {}

//xfm:ignor unreachable misspelt verb
func Typo() {}

//xfm:ignore
func IgnoreBare() {}

//xfm:ignore no-such-rule because reasons
func IgnoreUnknown() {}

//xfm:ignore unreachable
func IgnoreNoReason() {}
