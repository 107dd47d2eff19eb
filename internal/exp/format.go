package exp

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/join"
)

// FormatTable renders rows as an aligned text table.
func FormatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// secs renders a duration as whole seconds, like the paper's tables.
func secs(d time.Duration) string {
	return fmt.Sprintf("%.0f sec.", d.Seconds())
}

// FormatTable3 renders Experiment 1 in the layout of the paper's
// Table 3.
func FormatTable3(rows []Table3Row) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Join,
			fmt.Sprintf("%d", r.SMB),
			fmt.Sprintf("%d", r.RMB),
			fmt.Sprintf("%d", r.DMB),
			secs(r.BareRead),
			secs(r.StepI),
			secs(r.Total),
			fmt.Sprintf("%.1f", r.RelCost),
		})
	}
	return FormatTable(
		[]string{"", "|S| (MB)", "|R| (MB)", "D (MB)", "Read S + R", "Step I", "Steps I + II", "Rel. Cost"},
		out)
}

// FormatFigure4 renders the utilization trace, downsampled to at most
// maxRows lines.
func FormatFigure4(points []Fig4Point, maxRows int) string {
	out := [][]string{}
	for _, p := range sampleFigure4(points, maxRows) {
		out = append(out, []string{
			fmt.Sprintf("%.0f", p.Seconds),
			fmt.Sprintf("%.1f", p.EvenPct),
			fmt.Sprintf("%.1f", p.OddPct),
			fmt.Sprintf("%.1f", p.TotalPct),
		})
	}
	return FormatTable([]string{"Time (s)", "Even iter (%)", "Odd iter (%)", "Total (%)"}, out)
}

// sampleFigure4 keeps at most maxRows evenly strided points of the
// trace, the first among them.
func sampleFigure4(points []Fig4Point, maxRows int) []Fig4Point {
	stride := len(points)/max(maxRows, 1) + 1
	var out []Fig4Point
	for i := 0; i < len(points); i += stride {
		out = append(out, points[i])
	}
	return out
}

// FormatFigure5 renders Experiment 2's two series.
func FormatFigure5(rows []Fig5Row) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		cdt := "infeasible"
		if r.CDTGHOk {
			cdt = fmt.Sprintf("%.0f", r.CDTGH.Seconds())
		}
		out = append(out, []string{
			fmt.Sprintf("%.1f", r.DiskMB),
			cdt,
			fmt.Sprintf("%.0f", r.CTTGH.Seconds()),
		})
	}
	return FormatTable([]string{"Disk (MB)", "CDT-GH (s)", "CTT-GH (s)"}, out)
}

// exp3Series pivots Experiment 3 rows into per-method columns of one
// metric.
func exp3Series(rows []Exp3Row, metric func(Exp3Row) string, title string) string {
	fracs := []float64{}
	seen := map[float64]bool{}
	byKey := map[string]string{}
	methods := []string{}
	mseen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.MemFrac] {
			seen[r.MemFrac] = true
			fracs = append(fracs, r.MemFrac)
		}
		if !mseen[string(r.Method)] {
			mseen[string(r.Method)] = true
			methods = append(methods, string(r.Method))
		}
		byKey[fmt.Sprintf("%s@%v", r.Method, r.MemFrac)] = metric(r)
	}
	sort.Float64s(fracs)

	headers := append([]string{"M/|R|"}, methods...)
	out := [][]string{}
	for _, f := range fracs {
		row := []string{fmt.Sprintf("%.2f", f)}
		for _, m := range methods {
			cell, ok := byKey[fmt.Sprintf("%s@%v", m, f)]
			if !ok {
				cell = "-"
			}
			row = append(row, cell)
		}
		out = append(out, row)
	}
	return title + "\n" + FormatTable(headers, out)
}

// FormatFigure6 renders the disk space requirement series.
func FormatFigure6(rows []Exp3Row) string {
	return exp3Series(rows, func(r Exp3Row) string {
		if !r.Feasible {
			return "infeasible"
		}
		return fmt.Sprintf("%.1f", r.DiskSpaceMB)
	}, "Disk Space Requirement (MB)")
}

// FormatFigure7 renders the disk I/O traffic series.
func FormatFigure7(rows []Exp3Row) string {
	return exp3Series(rows, func(r Exp3Row) string {
		if !r.Feasible {
			return "infeasible"
		}
		return fmt.Sprintf("%.0f", r.DiskIOMB)
	}, "Disk I/O Traffic (MB)")
}

// FormatFigure8 renders the response time series.
func FormatFigure8(rows []Exp3Row) string {
	return exp3Series(rows, func(r Exp3Row) string {
		if !r.Feasible {
			return "infeasible"
		}
		return fmt.Sprintf("%.0f", r.Response.Seconds())
	}, "Response Time (s)")
}

// FormatOverhead renders the relative join overhead series (Figures
// 9, 10 and 11), under an empty title line.
func FormatOverhead(rows []Exp3Row) string {
	return exp3Series(rows, func(r Exp3Row) string {
		if !r.Feasible {
			return "infeasible"
		}
		return fmt.Sprintf("%.0f%%", 100*r.Overhead)
	}, "")
}

// FormatAnalytic renders one of Figures 1–3.
func FormatAnalytic(points []AnalyticPoint) string {
	headers := []string{"|R|/M"}
	for _, m := range join.Methods() {
		headers = append(headers, m.Symbol())
	}
	out := [][]string{}
	for _, p := range points {
		row := []string{fmt.Sprintf("%.1f", p.ROverM)}
		for _, m := range headers[1:] {
			v := p.Relative[m]
			if math.IsInf(v, 1) {
				row = append(row, "infeasible")
			} else {
				row = append(row, fmt.Sprintf("%.2f", v))
			}
		}
		out = append(out, row)
	}
	return FormatTable(headers, out)
}

// FormatSkew renders the skew experiment: per backend and method, the
// virtual response on uniform keys, on Zipf(0.99) under the uniform
// planner, and on the same Zipf input with skew-aware partitioning,
// plus the planner's win and the plan repair it performed.
func FormatSkew(rows []SkewRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		if !r.Feasible {
			out = append(out, []string{
				r.Backend, string(r.Method), "-", "-", "-", "-", "-",
				"infeasible: " + r.Reason,
			})
			continue
		}
		// Sub-second responses (the file backend's unpaced runs) are
		// wall-clock noise; a percentage of them would be meaningless.
		win := "n/a"
		if r.Zipf >= time.Second && r.ZipfAware >= time.Second {
			win = fmt.Sprintf("%+.1f%%", (1-r.ZipfAware.Seconds()/r.Zipf.Seconds())*100)
		}
		plan := "trivial"
		if r.SkewPartitions > 0 {
			plan = fmt.Sprintf("%d heavy, %d parts", r.HeavyHitters, r.SkewPartitions)
		}
		out = append(out, []string{
			r.Backend, string(r.Method),
			secs(r.Uniform), secs(r.Zipf), secs(r.ZipfAware),
			win, plan,
			fmt.Sprintf("%d matches", r.Matches),
		})
	}
	return FormatTable(
		[]string{"Backend", "Method", "Uniform", "Zipf .99", "Zipf+skew", "Win", "Skew plan", "Output"},
		out,
	)
}
