package exp

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	tapejoin "repro"
)

// Small scales keep these tests fast; the geometry (and therefore the
// paper's shapes) is preserved by construction.

func TestTable3ShapeAndMonotoneRelCost(t *testing.T) {
	rows, err := Table3(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.RelCost < 3 || r.RelCost > 20 {
			t.Errorf("%s: relative cost %.1f outside sane band", r.Join, r.RelCost)
		}
		if r.StepI <= 0 || r.StepI >= r.Total {
			t.Errorf("%s: StepI %v vs Total %v", r.Join, r.StepI, r.Total)
		}
		if r.BareRead >= r.Total {
			t.Errorf("%s: join faster than reading the tapes", r.Join)
		}
	}
	// Join III -> IV: same R and D, bigger S amortizes setup: relative
	// cost falls (the paper's Section 7 observation).
	if rows[3].RelCost >= rows[2].RelCost {
		t.Errorf("relative cost should fall from Join III (%.2f) to Join IV (%.2f)",
			rows[2].RelCost, rows[3].RelCost)
	}
}

func TestFigure4UtilizationNearFull(t *testing.T) {
	points := paperRun(t, "figure4").([]Fig4Point)
	if len(points) < 100 {
		t.Fatalf("only %d trace points", len(points))
	}
	// Time-weighted mean utilization across the middle 80% of the
	// trace should be near 100% (the paper's Figure 4).
	lo, hi := len(points)/10, len(points)*9/10
	var sum float64
	for _, p := range points[lo:hi] {
		if p.TotalPct > 100.0001 {
			t.Fatalf("utilization above 100%%: %+v", p)
		}
		sum += p.TotalPct
	}
	mean := sum / float64(hi-lo)
	if mean < 85 {
		t.Fatalf("steady-state utilization %.1f%%, want >= 85%%", mean)
	}
	// Both parities must actually be exercised (shark teeth).
	var evenPeak, oddPeak float64
	for _, p := range points {
		evenPeak = math.Max(evenPeak, p.EvenPct)
		oddPeak = math.Max(oddPeak, p.OddPct)
	}
	if evenPeak < 50 || oddPeak < 50 {
		t.Fatalf("parity peaks %.0f%%/%.0f%%; want both sides used", evenPeak, oddPeak)
	}
}

func TestFigure5Shape(t *testing.T) {
	rows, err := Figure5(0.2)
	if err != nil {
		t.Fatal(err)
	}
	// CDT-GH must blow up as D approaches |R| and become infeasible
	// below; CTT-GH must stay feasible throughout and degrade gently.
	var lastFeasible Fig5Row
	sawInfeasible := false
	for _, r := range rows {
		if r.CDTGHOk {
			lastFeasible = r
		} else {
			sawInfeasible = true
			if r.CDTGHWhy == "" {
				t.Error("infeasible point lacks a reason")
			}
		}
		if r.CTTGH <= 0 {
			t.Fatalf("CTT-GH missing at D=%.1f", r.DiskMB)
		}
	}
	if !sawInfeasible {
		t.Fatal("CDT-GH should become infeasible as D falls below |R|")
	}
	// At the last feasible (smallest) D, CDT-GH should be far worse
	// than CTT-GH; at the largest D it should win.
	if lastFeasible.CDTGH < 2*lastFeasible.CTTGH {
		t.Errorf("near D=|R|: CDT-GH %v should be much worse than CTT-GH %v",
			lastFeasible.CDTGH, lastFeasible.CTTGH)
	}
	first := rows[0]
	if !first.CDTGHOk || first.CDTGH > first.CTTGH {
		t.Errorf("at D=3|R|: CDT-GH %v should beat CTT-GH %v", first.CDTGH, first.CTTGH)
	}
}

func TestExperiment3Shapes(t *testing.T) {
	rows, err := Experiment3(0.15, tapejoin.Compress25)
	if err != nil {
		t.Fatal(err)
	}
	get := func(m tapejoin.Method, frac float64) Exp3Row {
		for _, r := range rows {
			if r.Method == m && r.MemFrac == frac {
				return r
			}
		}
		t.Fatalf("missing row %s@%v", m, frac)
		return Exp3Row{}
	}
	small, large := 0.1, 1.0

	// Figure 6: NB methods need |R| = 18 MB of disk; DB needs more;
	// GH methods sit at ~D.
	if r := get(tapejoin.DTNB, large); math.Abs(r.DiskSpaceMB-18) > 1 {
		t.Errorf("DT-NB disk space %.1f, want ~18", r.DiskSpaceMB)
	}
	if r := get(tapejoin.CDTNBDB, large); r.DiskSpaceMB < 19 {
		t.Errorf("CDT-NB/DB disk space %.1f, want > |R|", r.DiskSpaceMB)
	}
	if r := get(tapejoin.CDTGH, small); r.DiskSpaceMB < 40 {
		t.Errorf("CDT-GH disk space %.1f, want ~D=50", r.DiskSpaceMB)
	}

	// Figure 7: NB traffic explodes at small M; MB is roughly double
	// DT-NB; GH traffic is flat in M.
	nbSmall, nbLarge := get(tapejoin.DTNB, small), get(tapejoin.DTNB, large)
	if nbSmall.DiskIOMB < 4*nbLarge.DiskIOMB {
		t.Errorf("DT-NB traffic %.0f at small M vs %.0f at large; want explosion", nbSmall.DiskIOMB, nbLarge.DiskIOMB)
	}
	mbSmall := get(tapejoin.CDTNBMB, small)
	if mbSmall.DiskIOMB < 1.5*nbSmall.DiskIOMB {
		t.Errorf("CDT-NB/MB traffic %.0f vs DT-NB %.0f; want ~2x", mbSmall.DiskIOMB, nbSmall.DiskIOMB)
	}
	ghSmall, ghLarge := get(tapejoin.DTGH, small), get(tapejoin.DTGH, large)
	ratio := ghSmall.DiskIOMB / ghLarge.DiskIOMB
	if ratio < 0.7 || ratio > 1.5 {
		t.Errorf("DT-GH traffic should be flat in M: %.0f vs %.0f", ghSmall.DiskIOMB, ghLarge.DiskIOMB)
	}

	// Figure 8/9: CDT-GH dominates at small M; CDT-NB/MB wins at
	// M = |R|; CDT-GH beats DT-GH throughout.
	if a, b := get(tapejoin.CDTGH, small), get(tapejoin.DTNB, small); a.Response >= b.Response {
		t.Errorf("small M: CDT-GH %v should beat DT-NB %v", a.Response, b.Response)
	}
	if a, b := get(tapejoin.CDTNBMB, large), get(tapejoin.CDTGH, large); a.Response >= b.Response {
		t.Errorf("large M: CDT-NB/MB %v should beat CDT-GH %v", a.Response, b.Response)
	}
	for _, frac := range []float64{small, 0.5, large} {
		if a, b := get(tapejoin.CDTGH, frac), get(tapejoin.DTGH, frac); a.Response >= b.Response {
			t.Errorf("M=%v: CDT-GH %v should beat DT-GH %v", frac, a.Response, b.Response)
		}
	}
	// Overheads are consistent with responses.
	for _, r := range rows {
		if r.Feasible && r.Overhead <= 0 {
			t.Errorf("%s@%v: overhead %.2f should be positive", r.Method, r.MemFrac, r.Overhead)
		}
	}
}

func TestExperiment3CompressionEffect(t *testing.T) {
	base := paperRun(t, "experiment3").([]Exp3Row)
	slow := paperRun(t, "figure10").([]Exp3Row)
	fast := paperRun(t, "figure11").([]Exp3Row)
	// Section 9: a slower tape reduces the concurrent methods' join
	// overhead, a faster tape increases it. Compare CDT-GH at its
	// sweet spot.
	pick := func(rows []Exp3Row) float64 {
		for _, r := range rows {
			if r.Method == tapejoin.CDTGH && r.MemFrac == 0.5 && r.Feasible {
				return r.Overhead
			}
		}
		t.Fatal("missing CDT-GH@0.5")
		return 0
	}
	s, b, f := pick(slow), pick(base), pick(fast)
	if !(s < b && b < f) {
		t.Fatalf("overhead ordering wrong: slow %.2f, base %.2f, fast %.2f", s, b, f)
	}
}

func TestAnalyticFiguresRender(t *testing.T) {
	for fig := 1; fig <= 3; fig++ {
		points := AnalyticFigure(fig)
		if len(points) < 5 {
			t.Fatalf("figure %d: %d points", fig, len(points))
		}
		text := FormatAnalytic(points)
		if !strings.Contains(text, "CTT-GH") || !strings.Contains(text, "|R|/M") {
			t.Fatalf("figure %d render missing headers:\n%s", fig, text)
		}
	}
	// Figure 3's large ratios leave only tape-tape methods feasible.
	last := AnalyticFigure(3)
	end := last[len(last)-1]
	if !math.IsInf(end.Relative["DT-NB"], 1) || math.IsInf(end.Relative["CTT-GH"], 1) {
		t.Fatalf("figure 3 feasibility wrong: %+v", end.Relative)
	}
}

// TestAnalyticFiguresJSON decodes the JSON of Figures 1-3, as
// tapejoin paper -format json writes it: infeasible methods are null, every
// other cell is the figure's number.
func TestAnalyticFiguresJSON(t *testing.T) {
	sawNull := false
	for fig := 1; fig <= 3; fig++ {
		points := AnalyticFigure(fig)
		raw, err := json.Marshal(points)
		if err != nil {
			t.Fatalf("figure %d: %v", fig, err)
		}
		var got []struct {
			ROverM   float64
			Relative map[string]*float64
		}
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("figure %d: %v", fig, err)
		}
		if len(got) != len(points) {
			t.Fatalf("figure %d: %d points decoded, want %d", fig, len(got), len(points))
		}
		for i, p := range points {
			if got[i].ROverM != p.ROverM || len(got[i].Relative) != len(p.Relative) {
				t.Fatalf("figure %d point %d: decoded %+v, want %+v", fig, i, got[i], p)
			}
			for m, v := range p.Relative {
				g, ok := got[i].Relative[m]
				switch {
				case !ok:
					t.Fatalf("figure %d point %d: %s missing", fig, i, m)
				case math.IsInf(v, 1):
					sawNull = true
					if g != nil {
						t.Fatalf("figure %d point %d: infeasible %s decoded as %v", fig, i, m, *g)
					}
				case g == nil || *g != v:
					t.Fatalf("figure %d point %d: %s decoded as %v, want %v", fig, i, m, g, v)
				}
			}
		}
	}
	if !sawNull {
		t.Fatal("no infeasible cell in Figures 1-3; the null encoding went untested")
	}
}

func TestFormatters(t *testing.T) {
	rows, err := Table3(0.05)
	if err != nil {
		t.Fatal(err)
	}
	text := FormatTable3(rows)
	if !strings.Contains(text, "Rel. Cost") || !strings.Contains(text, "Join IV") {
		t.Fatalf("table 3 render:\n%s", text)
	}

	points, err := Figure4(0.05)
	if err != nil {
		t.Fatal(err)
	}
	f4 := FormatFigure4(points, 10)
	if strings.Count(f4, "\n") > 15 {
		t.Fatalf("figure 4 not downsampled:\n%s", f4)
	}

	generic := FormatTable([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(generic, "333") {
		t.Fatal("generic table broken")
	}
}

func TestAblationsQuantifyDesignChoices(t *testing.T) {
	rows := paperRun(t, "ablations").([]AblationRow)
	if len(rows) != 6 {
		t.Fatalf("%d ablations", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Baseline <= 0 || r.Variant <= 0 {
			t.Fatalf("%s: empty timings %+v", r.Name, r)
		}
	}
	// Every paper design choice must win (ratio > 1), with sensible
	// magnitudes.
	if r := byName["double-buffering"]; r.Ratio < 1.3 {
		t.Errorf("split buffering should cost >= 1.3x, got %.2f", r.Ratio)
	}
	if r := byName["scan direction"]; r.Ratio <= 1.0 {
		t.Errorf("forward-only should cost more, got %.2f", r.Ratio)
	}
	if r := byName["device penalties"]; r.Ratio <= 1.1 {
		t.Errorf("DLT penalties should cost > 1.1x ideal, got %.2f", r.Ratio)
	}
	if r := byName["random bucket I/O"]; r.Ratio <= 1.05 {
		t.Errorf("positioning at minimal M should cost > 1.05x, got %.2f", r.Ratio)
	}
	// The sort-merge baseline must lose to hashing by a wide margin
	// on the calibrated drive (seek-bound merge passes).
	if r := byName["hashing vs sorting"]; r.Ratio < 3 {
		t.Errorf("sort-merge should lose >= 3x, got %.2f", r.Ratio)
	}
	// Media exchanges cost a fixed ~120 s: noticeable at small scale,
	// negligible at paper scale (the Section 3.2 claim).
	if r := byName["media exchanges"]; r.Ratio <= 1.0 || r.Ratio > 2.0 {
		t.Errorf("exchange overhead ratio %.2f out of band", r.Ratio)
	}
	text := FormatAblations(rows)
	if !strings.Contains(text, "alt/paper") {
		t.Fatalf("render:\n%s", text)
	}
}

func TestTable2MeasuredRequirements(t *testing.T) {
	rows := paperRun(t, "table2").([]Table2Row)
	if len(rows) != 9 {
		t.Fatalf("%d rows", len(rows))
	}
	get := func(sym string) Table2Row {
		for _, r := range rows {
			if r.Symbol == sym {
				return r
			}
		}
		t.Fatalf("missing %s", sym)
		return Table2Row{}
	}
	// The probe workload: |R| = 16 MB, |S| = 64 MB.
	// Disk-tape methods need D >= |R| (Table 2).
	for _, sym := range []string{"DT-NB", "CDT-NB/MB", "DT-GH", "CDT-GH"} {
		if d := get(sym).DiskMB; d < 16 || d > 18 {
			t.Errorf("%s min disk = %.2f, want ~|R| = 16", sym, d)
		}
	}
	// CDT-NB/DB adds its S staging area, which holds more than Table
	// 2's |S_i| = 7.25 MB at M = 8 MB: the joiner frees a chunk only
	// after reading it back while the stager refills the space. Table2
	// runs every method at its minima, so a row below what the run
	// holds fails it.
	if d := get("CDT-NB/DB").DiskMB; d <= 16+7.25 {
		t.Errorf("CDT-NB/DB min disk = %.2f, want > |R|+|S_i| = 23.25", d)
	}
	// GH methods need M >= sqrt(|R|): sqrt(256 blocks) = 16 blocks = 1 MB.
	for _, sym := range []string{"DT-GH", "CDT-GH", "CTT-GH", "TT-GH"} {
		if m := get(sym).MemoryMB; m < 0.9 || m > 1.5 {
			t.Errorf("%s min memory = %.2f, want ~sqrt(|R|) = 1 MB", sym, m)
		}
	}
	// Tape-tape methods run with tiny disk.
	for _, sym := range []string{"CTT-GH", "TT-GH", "TT-SM"} {
		if d := get(sym).DiskMB; d >= 16 {
			t.Errorf("%s min disk = %.2f, want << |R|", sym, d)
		}
	}
	// Tape scratch: CTT-GH consumes ~|R| on R's tape; TT-GH consumes
	// ~|S| on R's tape and ~|R| on S's; disk-tape methods none.
	if r := get("CTT-GH"); r.TapeRMB < 16 || r.TapeRMB > 18 || r.TapeSMB != 0 {
		t.Errorf("CTT-GH scratch = %.1f/%.1f, want ~16/0", r.TapeRMB, r.TapeSMB)
	}
	if r := get("TT-GH"); r.TapeRMB < 64 || r.TapeRMB > 67 || r.TapeSMB < 16 || r.TapeSMB > 18 {
		t.Errorf("TT-GH scratch = %.1f/%.1f, want ~64/~16", r.TapeRMB, r.TapeSMB)
	}
	if r := get("DT-NB"); r.TapeRMB != 0 || r.TapeSMB != 0 {
		t.Errorf("DT-NB scratch = %.1f/%.1f, want 0/0", r.TapeRMB, r.TapeSMB)
	}
	text := FormatTable2(rows)
	if !strings.Contains(text, "min M (MB)") {
		t.Fatalf("render:\n%s", text)
	}
}

// TestWorkloadSharedScanWins pins the multi-query experiment's shared
// passes: the shared-pass price admits one pass per S relation here,
// and the simulated makespan confirms it beats mount-aware ordering.
func TestWorkloadSharedScanWins(t *testing.T) {
	rows, err := Workload(1)
	if err != nil {
		t.Fatal(err)
	}
	by := make(map[string]WorkloadRow, len(rows))
	for _, r := range rows {
		by[r.Policy] = r
	}
	shared, aware := by["shared-scan"], by["mount-aware"]
	if shared.SharedPasses != 3 {
		t.Errorf("shared-scan ran %d shared passes, want 3", shared.SharedPasses)
	}
	if shared.Makespan >= aware.Makespan {
		t.Errorf("shared-scan makespan %v not below mount-aware %v", shared.Makespan, aware.Makespan)
	}
}
