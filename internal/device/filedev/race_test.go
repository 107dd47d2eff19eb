//go:build race

package filedev

// raceEnabled: the race detector drops a share of sync.Pool puts on
// purpose, so allocation figures mean nothing under it.
const raceEnabled = true
