package fault_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/join"
)

// TestFailureModelTable pins what every recovery layer does with every
// error shape the tree produces. Each layer reads the class table the
// way its call site does, context condition included: the device retry
// runs with the breaker closed, the unit restart knows whether a disk
// was lost, and the workload runs with recovery on. The workload column
// is the batch's answer: requeue the query, fail it, or abort.
//
// Every value but the marked workload cells is what the layers'
// separate predicates answered before the table replaced them. The
// marked cells were "abort": a transient, timeout or media failure
// aborted the whole batch, and a bare checksum mismatch was no
// corruption to the requeue.
func TestFailureModelTable(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("op: %w", err) }
	exhausted := func(cause error) error {
		return fmt.Errorf("%w after %d attempts on %s: %w", fault.ErrFaultExhausted, 5, "tape:R", cause)
	}
	trip := fmt.Errorf("tape:R: %w", fault.ErrDeviceFailed)
	if fault.Tripped(wrap(fault.ErrTimeout), fault.ErrDriveLost) != nil {
		t.Fatal("Tripped translated a timeout")
	}
	const (
		requeue = "requeue"
		fail    = "fail"
		abort   = "abort"
	)
	cases := []struct {
		name                            string
		err                             error
		diskLost                        bool
		retry, reread, restart, degrade bool
		workload                        string
	}{
		{"transient", fault.ErrTransient, false, true, true, false, false, fail},               // was abort
		{"transient wrapped", wrap(fault.ErrTransient), false, true, true, false, false, fail}, // was abort
		{"timeout", fault.ErrTimeout, false, true, true, false, false, fail},                   // was abort
		{"timeout wrapped", wrap(fault.ErrTimeout), false, true, true, false, false, fail},     // was abort
		{"corrupt", fault.ErrCorrupt, false, false, true, false, false, requeue},
		{"corrupt wrapped", wrap(fault.ErrCorrupt), false, false, true, false, false, requeue},
		{"bad checksum", block.ErrBadChecksum, false, false, true, false, false, requeue},               // was abort
		{"bad checksum wrapped", wrap(block.ErrBadChecksum), false, false, true, false, false, requeue}, // was abort
		{"media", fault.ErrMedia, false, false, false, false, false, fail},                              // was abort
		{"media wrapped", wrap(fault.ErrMedia), false, false, false, false, false, fail},                // was abort
		{"breaker", fault.ErrDeviceFailed, false, false, false, false, false, requeue},
		{"breaker wrapped", trip, false, false, false, false, false, requeue},
		{"drive lost", fault.ErrDriveLost, false, false, false, false, true, requeue},
		{"drive lost wrapped", wrap(fault.ErrDriveLost), false, false, false, false, true, requeue},
		{"filedev drive trip", fmt.Errorf("filedev: drive %q: %w", "R", fault.Tripped(trip, fault.ErrDriveLost)),
			false, false, false, false, true, requeue},
		{"device lost", fault.ErrDeviceLost, false, false, false, true, false, requeue},
		{"device lost wrapped", wrap(fault.ErrDeviceLost), false, false, false, true, false, requeue},
		{"disk.LostError", &disk.LostError{Disk: 1}, false, false, false, true, false, requeue},
		{"disk.LostError wrapped", wrap(&disk.LostError{Disk: 1}), false, false, false, true, false, requeue},
		{"filedev store trip", fmt.Errorf("filedev: disk store: %w", fault.Tripped(trip, fault.ErrDeviceLost)),
			false, false, false, true, false, requeue},
		{"exhausted", fault.ErrFaultExhausted, false, false, false, true, false, requeue},
		{"exhausted wrapped", wrap(fault.ErrFaultExhausted), false, false, false, true, false, requeue},
		{"exhausted transient", exhausted(fault.ErrTransient), false, true, true, true, false, requeue},
		{"exhausted timeout", exhausted(wrap(fault.ErrTimeout)), false, true, true, true, false, requeue},
		{"exhausted corrupt", exhausted(wrap(fault.ErrCorrupt)), false, false, true, true, false, requeue},
		{"exhausted bad checksum", exhausted(wrap(block.ErrBadChecksum)), false, false, true, true, false, requeue},
		{"disk full", fault.ErrDiskFull, false, false, false, false, false, abort},
		{"disk full wrapped", wrap(fault.ErrDiskFull), false, false, false, false, false, abort},
		{"disk full after a disk loss", fault.ErrDiskFull, true, false, false, true, false, abort},
		{"disk full wrapped after a disk loss", wrap(fault.ErrDiskFull), true, false, false, true, false, abort},
		{"stopped", join.ErrStopped, false, false, false, false, false, abort},
		{"plain", errors.New("plain"), false, false, false, false, false, abort},
	}
	acts := fault.Acts
	for _, c := range cases {
		workload := abort
		switch {
		case acts(fault.Requeue, c.err):
			workload = requeue
		case acts(fault.Contain, c.err):
			workload = fail
		}
		got := []any{acts(fault.Retry, c.err), acts(fault.Reread, c.err),
			acts(fault.Restart, c.err) || c.diskLost && acts(fault.RestartAfterLoss, c.err),
			acts(fault.Degrade, c.err), workload}
		want := []any{c.retry, c.reread, c.restart, c.degrade, c.workload}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s (%v): [retry reread restart degrade workload] = %v, want %v", c.name, c.err, got, want)
		}
	}
}
