package xfm

import (
	"errors"
	"fmt"

	"xfm/internal/sfm"
)

// ErrUncorrectable is the errors.Is target for uncorrectable side-band
// ECC verification failures (§4.1): more than one flipped bit in a
// 64-bit word defeats SECDED.
var ErrUncorrectable = errors.New("xfm: uncorrectable ECC words")

// UncorrectableError reports which page failed ECC verification and
// how many words were uncorrectable. The struct is plain data: no fmt
// call happens until Error() renders it, so constructing one on the
// swap-in path allocates only the (cold, error-path) struct itself.
type UncorrectableError struct {
	Page     sfm.PageID
	BadWords int
}

// Error implements error.
func (e *UncorrectableError) Error() string {
	return fmt.Sprintf("xfm: page %d has %d uncorrectable ECC words", e.Page, e.BadWords)
}

// Is makes errors.Is(err, ErrUncorrectable) match any UncorrectableError.
//
//xfm:ignore unreachable errors.Is calls it through an unnamed interface no static walk sees; TestUncorrectableTypedError matches ErrUncorrectable with it
func (e *UncorrectableError) Is(target error) bool {
	return target == ErrUncorrectable
}
