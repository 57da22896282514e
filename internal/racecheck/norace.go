//go:build !race

// Package racecheck tells tests whether the race detector is compiled in.
// The detector's instrumentation allocates, so tests that pin allocation
// counts with testing.AllocsPerRun skip themselves under it; `make check`
// and CI run those tests in a separate pass without -race.
package racecheck

// Enabled reports that the race detector is compiled in.
const Enabled = false
