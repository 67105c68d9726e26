// Command tool is the fixture's only binary: everything reachable is
// reachable from here, from an init, or from a package-level
// initialiser.
package main

import "unreachfix/lib"

func main() {
	var s lib.Shape = lib.NewSquare(2)
	println(s.Area(), lib.Apply(lib.Double, 3), lib.Default.Name())
	lib.Sort([]int{2, 1})
}

func helper() {} // want unreachable
