//go:build race

package filedev

// raceEnabled: under the race detector bufPool.put poisons every
// recycled buffer, so a read through an alias a consumer kept past
// Recycle returns garbage; and the detector drops a share of sync.Pool
// puts on purpose, so tests skip their allocation bounds.
const raceEnabled = true
