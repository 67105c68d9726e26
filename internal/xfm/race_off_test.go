//go:build !race

package xfm

const raceEnabled = false
