package workload

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/relation"
	"repro/internal/tape"
)

// makeMixedBatch is the scheduler's hard case: three S relations share
// one cartridge (SX holds X, Y and Z) beside a one-relation cartridge
// (SW), R relations interleave three R cartridges, and two queries are
// StopAfter prefixes. Serving a whole S relation here leaves R groups
// of the same cartridge half served, which is what an order computed
// from the remaining queue alone would get wrong.
func makeMixedBatch(t *testing.T, policy Policy, cacheBlocks int64) *batch {
	t.Helper()
	b := makeBatch(t, policy, cacheBlocks)
	mSX, mSW := tape.NewMedia("SX", 4096), tape.NewMedia("SW", 4096)
	mRa, mRb, mRd := tape.NewMedia("Ra", 4096), tape.NewMedia("Rb", 4096), tape.NewMedia("Rd", 4096)
	x := tapeRel(t, "X", 110, 48, 21, mSX)
	y := tapeRel(t, "Y", 111, 48, 22, mSX)
	z := tapeRel(t, "Z", 112, 48, 23, mSX)
	w := tapeRel(t, "W", 113, 48, 24, mSW)
	r1 := tapeRel(t, "R1", 1, 16, 31, mRa)
	r2 := tapeRel(t, "R2", 2, 16, 32, mRa)
	r3 := tapeRel(t, "R3", 3, 16, 33, mRb)
	r4 := tapeRel(t, "R4", 4, 16, 34, mRd)
	qs := []struct {
		r, s      *relation.Relation
		stopAfter int64
	}{
		{r1, x, 0}, {r1, y, 0}, {r3, x, 0}, {r3, z, 0},
		{r4, w, 0}, {r4, x, 7}, {r2, y, 0}, {r3, w, 0},
		{r4, z, 0}, {r1, x, 0}, {r2, z, 3}, {r3, y, 0},
	}
	b.queries, b.expect = nil, make(map[string]int64)
	for i, q := range qs {
		id := fmt.Sprintf("m%d", i)
		b.queries = append(b.queries, Query{ID: id, R: q.r, S: q.s, StopAfter: q.stopAfter})
		b.expect[id] = relation.ExpectedMatches(q.r, q.s)
	}
	b.cfg.Resources.MemoryBlocks = 64
	b.cfg.MaxShared = 2
	return b
}

// batchDigest is a canonical digest of a whole BatchResult: every
// exported field, every QueryResult field and every schedule line,
// rendered as JSON with sorted keys, so a change to how the result is
// laid out in Go does not move it while any value does.
func batchDigest(t *testing.T, out *BatchResult) string {
	t.Helper()
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var canon any
	if err := json.Unmarshal(raw, &canon); err != nil {
		t.Fatal(err)
	}
	raw, err = json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(raw))[:16]
}

// TestBatchResultsPinned pins the digest of every batch fixture of
// this package under every policy, clean and faulted. Any change to a
// schedule, a mount, a cache decision, a result field or a log line
// moves a digest.
func TestBatchResultsPinned(t *testing.T) {
	type fixture struct {
		name   string
		build  func(t *testing.T, p Policy) *batch
		faults string
	}
	fixtures := []fixture{
		{"batch", func(t *testing.T, p Policy) *batch { return makeBatch(t, p, 0) }, ""},
		{"batch-cache16", func(t *testing.T, p Policy) *batch { return makeBatch(t, p, 16) }, ""},
		{"batch-cache64", func(t *testing.T, p Policy) *batch { return makeBatch(t, p, 64) }, ""},
		{"sharing", func(t *testing.T, p Policy) *batch { return makeSharingBatch(t, p, 0) }, ""},
		{"sharing-cache64", func(t *testing.T, p Policy) *batch { return makeSharingBatch(t, p, 64) }, ""},
		{"sweep-priced", func(t *testing.T, p Policy) *batch { return sweepBatch(t, p, 40, 32, 384, 128) }, ""},
		{"sweep-shared", func(t *testing.T, p Policy) *batch { return sweepBatch(t, p, 128, 16, 1024, 0) }, ""},
		{"mixed", func(t *testing.T, p Policy) *batch { return makeMixedBatch(t, p, 0) }, ""},
		{"mixed-cache32", func(t *testing.T, p Policy) *batch { return makeMixedBatch(t, p, 32) }, ""},
		{"requeue", func(t *testing.T, p Policy) *batch { return makeBatch(t, p, 0) }, "transient=R:3:20"},
		{"demote", func(t *testing.T, p Policy) *batch { return makeSharingBatch(t, p, 0) }, "transient=S:40:5"},
		{"drivefail", func(t *testing.T, p Policy) *batch { return makeBatch(t, p, 200) }, "drivefail=S@60s"},
		{"persistent", func(t *testing.T, p Policy) *batch { return makeSharingBatch(t, p, 0) }, "transient=S:40:1000"},
	}
	want := map[string]string{
		"batch/fifo":                  "de5f3fa3d4b763ee",
		"batch/mount-aware":           "82e3bf4e79a158fe",
		"batch/shared-scan":           "2dc2d77bd19490a0",
		"batch-cache16/fifo":          "9a51b6755d47b08c",
		"batch-cache16/mount-aware":   "2941d9d00d82a985",
		"batch-cache16/shared-scan":   "177a59cb3352b8a6",
		"batch-cache64/fifo":          "d804e46bc3763c8f",
		"batch-cache64/mount-aware":   "16b1b05b3b8e68cb",
		"batch-cache64/shared-scan":   "6a8ea8583d3a6eec",
		"sharing/fifo":                "be0244c6586fd9b9",
		"sharing/mount-aware":         "839259c70883e08c",
		"sharing/shared-scan":         "aa49138ed567a179",
		"sharing-cache64/fifo":        "56fefd79507d10b3",
		"sharing-cache64/mount-aware": "703324bc0478f978",
		"sharing-cache64/shared-scan": "d084a1d1ee5d2d93",
		"sweep-priced/fifo":           "8511023cdac2cfc6",
		"sweep-priced/mount-aware":    "342830472a612b42",
		"sweep-priced/shared-scan":    "8cd38de7978c9f05",
		"sweep-shared/fifo":           "8a97a82068b124dd",
		"sweep-shared/mount-aware":    "a990d1f3a21005a6",
		"sweep-shared/shared-scan":    "062bfe8ad4ae2b99",
		"mixed/fifo":                  "76277ba3b30bcc22",
		"mixed/mount-aware":           "70af978c0e28a7d3",
		"mixed/shared-scan":           "539a32864c98b9b1",
		"mixed-cache32/fifo":          "86ffdc00526c4143",
		"mixed-cache32/mount-aware":   "eb9cb894b01c1081",
		"mixed-cache32/shared-scan":   "d117d0588e82be0e",
		"requeue/fifo":                "94dcafa4bcf1f517",
		"requeue/mount-aware":         "eb3b14ca55f534b0",
		"requeue/shared-scan":         "50e009cd7c972820",
		"demote/fifo":                 "64ca1ed64cdbb3d7",
		"demote/mount-aware":          "12f1ee8159b6c480",
		"demote/shared-scan":          "a5525cdfa89af02d",
		"drivefail/fifo":              "fd0fd4afd89727ff",
		"drivefail/mount-aware":       "dcc6f819a0d9debe",
		"drivefail/shared-scan":       "24afd274ddca574e",
		"persistent/fifo":             "a8a71a5c5fea30ff",
		"persistent/mount-aware":      "595cb567dac366d6",
		"persistent/shared-scan":      "75db5d15c6403ef6",
	}
	for _, f := range fixtures {
		for _, p := range []Policy{FIFO, MountAware, SharedScan} {
			key := f.name + "/" + p.String()
			t.Run(key, func(t *testing.T) {
				b := f.build(t, p)
				if f.faults != "" {
					sched, err := fault.Parse(f.faults)
					if err != nil {
						t.Fatal(err)
					}
					b.cfg.Resources.Faults = sched
				}
				out, err := Run(b.cfg, b.queries)
				if err != nil {
					t.Fatal(err)
				}
				for _, qr := range out.Queries {
					if !qr.Failed && !qr.Stopped && qr.Matches != b.expect[qr.ID] {
						t.Errorf("%s: matches = %d, want %d", qr.ID, qr.Matches, b.expect[qr.ID])
					}
				}
				if got := batchDigest(t, out); got != want[key] {
					t.Errorf("digest %s, want %s", got, want[key])
				}
			})
		}
	}
}
