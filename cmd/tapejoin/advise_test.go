package main

import (
	"bytes"
	"strings"
	"testing"

	tapejoin "repro"
)

// TestRecommendationPassesCheck: the recommended method must be one
// the system would actually run. At M = 0.5 MB no Grace Hash plan
// fits |R| = 4 MB (64 blocks need 10 buckets, M = 8 blocks holds 7
// write buffers), so the advisor must not recommend one even though
// the cost model prices CDT-GH cheapest.
func TestRecommendationPassesCheck(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"advise", "-r", "4", "-s", "16", "-mem", "0.5", "-disk", "8", "-rscratch", "64", "-sscratch", "64"}, &out); err != nil {
		t.Fatal(err)
	}
	_, rec, ok := strings.Cut(out.String(), "recommended: ")
	if !ok {
		t.Fatalf("no recommendation:\n%s", out.String())
	}
	method := tapejoin.Method(strings.TrimSpace(rec))

	sys, err := tapejoin.NewSystem(tapejoin.Config{MemoryMB: 0.5, DiskMB: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	relation := func(name string, sizeMB int64) *tapejoin.Relation {
		tp, err := sys.NewTape("tape-"+name, sizeMB+64)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := sys.CreateRelation(tp, tapejoin.RelationConfig{Name: name, SizeMB: sizeMB})
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	if err := sys.CheckFeasible(method, relation("R", 4), relation("S", 16)); err != nil {
		t.Fatalf("recommended %s fails CheckFeasible: %v\n%s", method, err, out.String())
	}
}
