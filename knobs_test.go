package tapejoin

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/device/filedev"
	"repro/internal/join"
	"repro/internal/service"
	"repro/internal/workload"
)

// knobSurface lists, struct by struct, every exported field a caller
// can set to configure a join, a backend, a batch or the service. The
// paper configures a join with M, D, n, X_D, X_T and the request size
// (Table 2, Sections 3.2 and 5.3); everything beyond that is a cost
// someone must justify. Adding or removing a knob makes
// TestKnobSurfacePinned fail, so the change shows up here as a
// reviewed diff.
var knobSurface = []struct {
	typ    reflect.Type
	fields []string
}{
	{reflect.TypeOf(Config{}), []string{
		"Backend", "BackendDir", "FileSync", "FileOpTimeout",
		"FilePace", "MemoryMB", "DiskMB",
		"NumDisks", "Profile", "Compression", "DiskTapeSpeedRatio",
		"SplitBuffering", "SkewAware", "ProbeNarrow", "BiDirectionalTape",
		"Observe", "Faults", "DisableRecovery", "ObsAddr", "ObsServer",
	}},
	{reflect.TypeOf(join.Resources{}), []string{
		"Backend", "MemoryBlocks", "DiskBlocks", "NumDisks", "DiskRate",
		"DiskOverhead", "Tape", "IOChunk", "Discipline", "SkewAware",
		"ProbeNarrow", "Faults", "DisableRecovery", "Spans", "Metrics", "Flight",
	}},
	{reflect.TypeOf(filedev.Backend{}), []string{
		"Dir", "Sync", "OpTimeout", "TripAfter", "RetryMax",
		"PaceScale", "Flight",
	}},
	{reflect.TypeOf(workload.Config{}), []string{
		"Resources", "Policy", "CacheBlocks", "MountTime", "MaxShared",
	}},
	{reflect.TypeOf(service.Config{}), []string{
		"Engine", "Catalog", "TenantQuota", "Obs", "Health",
	}},
	{reflect.TypeOf(service.LoadSpec{}), []string{
		"Seed", "Queries", "Tenants", "PriorityLevels", "StreamEvery",
		"DeadlineMS", "StopAfter",
	}},
}

// TestKnobSurfacePinned compares the exported fields of every
// configuration struct with knobSurface.
func TestKnobSurfacePinned(t *testing.T) {
	for _, k := range knobSurface {
		var got []string
		for i := 0; i < k.typ.NumField(); i++ {
			if f := k.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, k.fields) {
			t.Errorf("%v fields:\n got  %q\n want %q", k.typ, got, k.fields)
		}
	}
}
