//go:build race

package chaos

// raceEnabled reports that this binary was built with -race, under
// which a chaos run is several times slower; the gate test runs one
// seed instead of eight.
const raceEnabled = true
