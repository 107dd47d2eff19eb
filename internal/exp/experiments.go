package exp

import (
	"fmt"
	"strings"

	tapejoin "repro"
)

// Options are the settings of one tapejoin paper invocation, shared by
// every experiment it runs.
type Options struct {
	Scale   float64
	Backend string // the overlap experiment's storage backend: "sim" or "file"
	Quick   bool   // the CI subset of firsttuple and skew
}

// An Experiment is one -exp name of tapejoin paper: one table or figure of
// the paper's evaluation, or one of this reproduction's extensions.
// Experiments that share a Key share one run and one JSON value.
type Experiment struct {
	Name  string // the -exp value
	Key   string // the JSON key of the value
	Title string // the text section title
	Run   func(Options) (any, error)
	Text  func(any) string
	// Verdict fails the run's contract, which makes tapejoin paper exit
	// nonzero; nil when the experiment has none.
	Verdict func(any) error
	// pin returns the part of the value that is virtual time and exact
	// counts, which TestPaperGolden compares exactly.
	pin func(any) any
}

// Experiments is the paper's evaluation, in tapejoin paper's output order.
// tapejoin paper's text and JSON output and TestPaperGolden all walk it.
var Experiments = []Experiment{
	analytic(1), analytic(2), analytic(3),
	def("table2", "table2", "Table 2: resource requirements, measured against the implementations",
		func(Options) ([]Table2Row, error) { return Table2() }, FormatTable2, nil, whole),
	def("table3", "table3", "Table 3: Experiment 1 — Concurrent Tape-Tape Grace Hash Join",
		func(o Options) ([]Table3Row, error) { return Table3(o.Scale) }, FormatTable3, nil, whole),
	def("fig4", "figure4", "Figure 4: disk space utilization in CTT-GH Step II (Join III)",
		func(o Options) ([]Fig4Point, error) { return Figure4(o.Scale) },
		func(p []Fig4Point) string { return FormatFigure4(p, fig4Rows) },
		nil, func(p []Fig4Point) any { return sampleFigure4(p, fig4Rows) }),
	def("fig5", "figure5", "Figure 5: Experiment 2 — impact of disk space on CDT-GH and CTT-GH",
		func(o Options) ([]Fig5Row, error) { return Figure5(o.Scale) }, FormatFigure5, nil, whole),
	exp3("fig6", "experiment3", "Figure 6: disk space requirement vs memory size (Experiment 3)",
		tapejoin.Compress25, FormatFigure6),
	exp3("fig7", "experiment3", "Figure 7: disk I/O traffic vs memory size (Experiment 3)",
		tapejoin.Compress25, FormatFigure7),
	exp3("fig8", "experiment3", "Figure 8: response time vs memory size (Experiment 3, 25% compressible)",
		tapejoin.Compress25, FormatFigure8),
	exp3("fig9", "experiment3", "Figure 9: relative join overhead (Experiment 3, 25% compressible)",
		tapejoin.Compress25, FormatOverhead),
	exp3("fig10", "figure10", "Figure 10: relative join overhead, slower tape (0% compressible)",
		tapejoin.Compress0, FormatOverhead),
	exp3("fig11", "figure11", "Figure 11: relative join overhead, faster tape (50% compressible)",
		tapejoin.Compress50, FormatOverhead),
	def("ablations", "ablations", "Ablations: the design choices, quantified",
		func(o Options) ([]AblationRow, error) { return Ablations(o.Scale) }, FormatAblations, nil, whole),
	def("recovery", "recovery", "Recovery: fault injection across the join methods",
		func(o Options) ([]RecoveryRow, error) { return FaultRecovery(o.Scale) },
		FormatRecovery, RecoveryVerdict, whole),
	def("overlap", "overlap", "Overlap: per-phase critical path and device overlap, all methods",
		func(o Options) ([]OverlapRow, error) { return Overlap(o.Scale, o.Backend) }, FormatOverlap, nil, whole),
	def("workload", "workload", "Workload: multi-query batch under fifo / mount-aware / shared-scan scheduling",
		func(o Options) ([]WorkloadRow, error) { return Workload(o.Scale) }, FormatWorkload, nil, whole),
	def("firsttuple", "firsttuple", "First tuple: streaming SYM-H vs materializing methods, StopAfter=k",
		func(o Options) ([]FirstTupleRow, error) { return FirstTuple(o.Scale, o.Quick) },
		FormatFirstTuple, nil, whole),
	def("skew", "skew", "Skew: uniform vs Zipf 0.99 keys, uniform planner vs skew-aware partitioning",
		func(o Options) ([]SkewRow, error) { return Skew(o.Scale, o.Quick) }, FormatSkew, SkewVerdict, simRows),
}

// fig4Rows is how many points of Figure 4's trace tapejoin paper prints and
// the golden pins; the whole trace is thousands of points.
const fig4Rows = 40

// def builds an experiment from its typed run, rendering, verdict and
// pin; verdict may be nil.
func def[T any](name, key, title string, run func(Options) (T, error), text func(T) string,
	verdict func(T) error, pin func(T) any) Experiment {
	e := Experiment{
		Name: name, Key: key, Title: title,
		Run:  func(o Options) (any, error) { return run(o) },
		Text: func(v any) string { return text(v.(T)) },
		pin:  func(v any) any { return pin(v.(T)) },
	}
	if verdict != nil {
		e.Verdict = func(v any) error { return verdict(v.(T)) }
	}
	return e
}

// whole pins a value that is all virtual time and exact counts.
func whole[T any](v T) any { return v }

func analytic(fig int) Experiment {
	return def(fmt.Sprintf("fig%d", fig), fmt.Sprintf("figure%d", fig),
		fmt.Sprintf("Figure %d: analytic response time relative to reading S (|S|=10|R|, D=32M, X_D=2X_T)", fig),
		func(Options) ([]AnalyticPoint, error) { return AnalyticFigure(fig), nil }, FormatAnalytic, nil, whole)
}

func exp3(name, key, title string, comp tapejoin.Compression, text func([]Exp3Row) string) Experiment {
	return def(name, key, title,
		func(o Options) ([]Exp3Row, error) { return Experiment3(o.Scale, comp) }, text, nil, whole)
}

// Select returns the experiments -exp names: one, or all of them for
// "all". An unknown name's error lists every name.
func Select(name string) ([]Experiment, error) {
	if name == "all" {
		return Experiments, nil
	}
	for _, e := range Experiments {
		if e.Name == name {
			return []Experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want %s)", name, Names())
}

// Names lists every -exp value: each experiment's name, then "all".
func Names() string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return strings.Join(names, ", ") + ", or all"
}
