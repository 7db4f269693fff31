//go:build race

package core

// raceEnabled reports a -race build, whose detector allocates on its own.
const raceEnabled = true
