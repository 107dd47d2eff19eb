package main

import (
	"bytes"
	"strings"
	"testing"
)

// batchArgs is a small synthetic batch that every method can run.
var batchArgs = []string{"-batch", "3", "-r", "2", "-s", "8", "-mem", "4", "-disk", "16", "-keyspace", "4096"}

func runArgs(t *testing.T, extra ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(append(append([]string{}, batchArgs...), extra...), &out)
	return out.String(), err
}

// TestBatchHonoursMethod: an explicit -method is requested for every
// query of a batch; without it the cost advisor picks.
func TestBatchHonoursMethod(t *testing.T) {
	out, err := runArgs(t, "-method", "DT-GH")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out, " DT-GH "); n != 3 {
		t.Fatalf("%d of 3 queries ran DT-GH:\n%s", n, out)
	}
	out, err = runArgs(t)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, " DT-GH ") {
		t.Fatalf("advisor-picked batch ran DT-GH, the explicit method of the run above:\n%s", out)
	}
}

// TestBatchHonoursFaults: the fault schedule and the recovery switch
// reach a batch — with recovery off, the first injected fault fails
// its query (not the batch); with recovery on, the batch absorbs the
// fault and verifies.
func TestBatchHonoursFaults(t *testing.T) {
	const faults = "transient=R:5:2"
	out, err := runArgs(t, "-faults", faults, "-no-recover")
	if err != nil {
		t.Fatalf("a device fault aborted the batch: %v", err)
	}
	if !strings.Contains(out, "q0   FAILED: device-failed:") || !strings.Contains(out, "injected transient") {
		t.Fatalf("q0 did not fail on the injected transient fault:\n%s", out)
	}
	out, err = runArgs(t, "-faults", faults)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "FAILED") || !strings.Contains(out, "verification      ok") {
		t.Fatalf("recovered batch did not verify:\n%s", out)
	}
}

// TestBatchRejectsSingleJoinFlags: -stop-after and -limit shape one
// join's output and have no meaning for a batch.
func TestBatchRejectsSingleJoinFlags(t *testing.T) {
	for _, flag := range []string{"-stop-after", "-limit"} {
		if _, err := runArgs(t, flag, "5"); err == nil {
			t.Errorf("%s with -batch: no error", flag)
		}
	}
}

// TestBatchTimeline: -timeline renders the batch's device activity.
func TestBatchTimeline(t *testing.T) {
	out, err := runArgs(t, "-timeline")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "device timeline") || !strings.Contains(out, "per-device busy breakdown") {
		t.Fatalf("no timeline in batch output:\n%s", out)
	}
}
