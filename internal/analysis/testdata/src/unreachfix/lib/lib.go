// Package lib seeds the unreachable rule: each `want` line is a
// declaration no root mentions.
package lib

import "sort"

// Shape is dispatched through in main: Area is selected by name, so
// every reached type's Area is reached.
type Shape interface{ Area() int }

// Square is reached through its constructor's signature.
type Square struct{ side int }

func NewSquare(side int) *Square { return &Square{side: side} }

func (s *Square) Area() int { return s.side * s.side }

// Perimeter is selected nowhere in reached code.
func (s *Square) Perimeter() int { return 4 * s.side } // want unreachable

// Circle is mentioned by nothing: the type is reported once and its
// methods are not.
type Circle struct{ r int } // want unreachable

func (c Circle) Area() int { return 3 * c.r * c.r }

// The interface assertion does not keep Circle alive.
var _ Shape = Circle{}

// Double is reached as a function value, Apply by a call.
func Double(x int) int { return 2 * x }

func Apply(f func(int) int, x int) int { return f(x) }

func Triple(x int) int { return 3 * x } // want unreachable

// Default's initialiser runs at start-up whoever reads it, so newNamed
// and Named are reached; only main selects Name.
var Default = newNamed("default")

type Named struct{ name string }

func newNamed(name string) *Named { return &Named{name: name} }

func (n *Named) Name() string { return n.name }

// registered is reached from init.
func init() { registered() }

func registered() {}

// byValue reaches sort.Interface's methods through sort.Sort's
// parameter type: the standard library calls Len, Less and Swap.
type byValue []int

func (b byValue) Len() int           { return len(b) }
func (b byValue) Less(i, j int) bool { return b[i] < b[j] }
func (b byValue) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func Sort(xs []int) { sort.Sort(byValue(xs)) }

// Level's constants repeat their type implicitly; reading one constant
// reaches the type and, by name, its String method.
type Level int

const (
	Low Level = iota
	High
)

func (l Level) String() string { return [...]string{"low", "high"}[l] }

var current = High.String()

// refParse is what a test compares the real parser against.
//
//xfm:ignore unreachable reference parser of TestParseMatchesRef
func refParse(s string) int { return len(s) }
