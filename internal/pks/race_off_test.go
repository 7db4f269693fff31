//go:build !race

package pks

// raceEnabled reports a -race build, whose detector allocates on its own.
const raceEnabled = false
