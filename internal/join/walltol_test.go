package join

// Join-layer behavior of the wall-clock fault taxonomy on the file
// backend: OS-level errors absorbed below the join, stored corruption
// surfacing as typed fault.ErrCorrupt through the join's retry
// machinery, and recovery (or typed fail-fast) depending on whether
// the method can re-stage the damaged scratch.

import (
	"errors"
	"testing"

	"repro/internal/device/filedev"
	"repro/internal/fault"
)

// fileRes is fastRes on the file backend.
func fileRes(t *testing.T, m, d int64) Resources {
	t.Helper()
	res := fastRes(m, d)
	res.Backend = filedev.New(t.TempDir())
	return res
}

// TestOSErrorsAbsorbedBelowJoin injects syscall-level EIO on both the
// scratch store and the tape spool: the device worker's retries absorb
// them, so the join completes correctly without spending its own
// retry budget.
func TestOSErrorsAbsorbedBelowJoin(t *testing.T) {
	sched, err := fault.Parse("oserr=disk:2,oserr=R:1")
	if err != nil {
		t.Fatal(err)
	}
	result, want, err := runWith(t, "DT-GH", fileRes(t, 10, 64), sched)
	if err != nil {
		t.Fatalf("join with OS errors: %v", err)
	}
	if result.Stats.OutputTuples != want {
		t.Fatalf("matches = %d, want %d", result.Stats.OutputTuples, want)
	}
	if result.Stats.Retries != 0 {
		t.Errorf("join-level retries = %d, want 0 (device layer absorbs)", result.Stats.Retries)
	}
}

// TestStoredCorruptionRecoversViaRestage flips a stored bit of scratch
// block 0 (and, separately, tears its final write): every re-read of
// the damaged record fails checksum verification with typed
// fault.ErrCorrupt, the read retry budget drains into
// ErrFaultExhausted, and the unit restart re-stages the scratch from
// tape — this time clean — for a correct join.
func TestStoredCorruptionRecoversViaRestage(t *testing.T) {
	for _, spec := range []string{"flip=disk:0", "torn=disk:0"} {
		t.Run(spec, func(t *testing.T) {
			sched, err := fault.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			result, want, err := runWith(t, "CTT-GH", fileRes(t, 10, 64), sched)
			if err != nil {
				t.Fatalf("join with stored corruption: %v", err)
			}
			if result.Stats.OutputTuples != want {
				t.Fatalf("matches = %d, want %d", result.Stats.OutputTuples, want)
			}
			if result.Stats.Retries == 0 || result.Stats.UnitRestarts == 0 {
				t.Errorf("retries=%d restarts=%d, want both > 0",
					result.Stats.Retries, result.Stats.UnitRestarts)
			}
		})
	}
}

// TestStoredCorruptionFailsTyped runs the same stored flip through a
// method whose staging is not re-run by unit restarts: the join must
// fail fast with both ErrFaultExhausted and fault.ErrCorrupt in the
// chain — never hang, never deliver wrong tuples.
func TestStoredCorruptionFailsTyped(t *testing.T) {
	sched, err := fault.Parse("flip=disk:0")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = runWith(t, "DT-NB", fileRes(t, 10, 64), sched)
	if !errors.Is(err, fault.ErrFaultExhausted) || !errors.Is(err, fault.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrFaultExhausted wrapping fault.ErrCorrupt", err)
	}
}
