package fault

import (
	"os"
	"strings"
	"testing"

	"repro/internal/block"
)

// renderClasses renders the class table as markdown: one row per class,
// one column per layer, in bit order.
func renderClasses(t *testing.T) string {
	names := map[error]string{
		ErrTransient: "ErrTransient", ErrTimeout: "ErrTimeout", ErrCorrupt: "ErrCorrupt",
		block.ErrBadChecksum: "block.ErrBadChecksum", ErrMedia: "ErrMedia",
		ErrDeviceFailed: "ErrDeviceFailed", ErrDriveLost: "ErrDriveLost",
		ErrDeviceLost: "ErrDeviceLost", ErrFaultExhausted: "ErrFaultExhausted",
		ErrDiskFull: "ErrDiskFull",
	}
	layers := []string{"device retry", "join re-read", "unit restart", "unit restart after a disk loss",
		"drive-loss degrade", "workload requeue", "workload contain"}
	var b strings.Builder
	b.WriteString("| class | errors | " + strings.Join(layers, " | ") + " |\n")
	b.WriteString("|---|---|" + strings.Repeat("---|", len(layers)) + "\n")
	for _, c := range classes {
		errs := make([]string, len(c.errs))
		for i, e := range c.errs {
			if names[e] == "" {
				t.Fatalf("class %s: no name for %v", c.name, e)
			}
			errs[i] = "`" + names[e] + "`"
		}
		b.WriteString("| " + c.name + " | " + strings.Join(errs, ", ") + " |")
		for i := range layers {
			if c.acts&(1<<i) != 0 {
				b.WriteString(" ✓ |")
			} else {
				b.WriteString(" |")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// DESIGN.md §7 prints the class table; this keeps its copy equal to
// the table the layers read.
func TestDesignPrintsClassTable(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := renderClasses(t); !strings.Contains(string(raw), want) {
		t.Errorf("DESIGN.md §7 lacks the class table; paste it:\n%s", want)
	}
}
