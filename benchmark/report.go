package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// printHeader says what the numbers below were measured on: they are
// comparable only between runs that print the same header.
func printHeader(o options) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	scale := "full"
	if o.smoke {
		scale = "smoke (numbers mean nothing)"
	}
	fmt.Printf("# benchmark: seed=%d seconds=%d scale=%s clients=%d (closed loop)\n", o.seed, o.seconds, scale, o.clients)
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d %s %s/%s GOGC=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, gogc)
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				fmt.Println("# WARNING: built with -race; timings are not comparable")
			}
		}
	}
	fmt.Printf("# file backend: dir=%s filesystem=%s FileSync=interval (default), no FilePace, async engine on\n", scratchRoot, fsType("."))
	fmt.Println("# file-backend latency is this sandbox's page cache, not a device's")
}

// fsType names the filesystem holding path, as far as the magic number
// of statfs(2) says.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("magic 0x%x", uint32(st.Type))
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func defUnit(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// printEndToEnd prints one workload's untraced result.
func printEndToEnd(r *runResult) {
	ops := r.attempted
	fmt.Printf("\n== %s: end-to-end (untraced) — %d ops in %d rounds, %d set-ups ==\n", r.workload, ops, len(r.rounds), len(r.setupS))
	for _, d := range endToEnd {
		n := len(r.rounds)
		if d.Name == "setup_s" {
			n = len(r.setupS)
		}
		fmt.Printf("%-22s %14.4f %-9s (%s is better; median of %d; bound %.0f%%)\n", d.Name, r.metrics[d.Name], d.Unit, d.Better, n, d.Bound*100)
	}
	fmt.Printf("%-22s %14.4f %-9s (derived: tuples_per_s x 18 B)\n", "mb_per_s", r.metrics["tuples_per_s"]*18/1e6, "MB/s")
	if v, ok := r.rounds[0].counts["virtual_s"]; ok {
		fmt.Printf("%-22s %14.6f %-9s (virtual: simulated seconds of one round; a count, gated by -aa and the traced run)\n", "virtual_s", v, "s")
	}
	fmt.Printf("%-22s %v\n", "round walls (s)", fmtFloats(roundWalls(r.rounds)))
	fmt.Printf("%-22s %14.6f %-9s (%d failed of %d attempted; any failure exits non-zero)\n", "fail_share", float64(r.failed)/float64(max(1, r.attempted)), "ratio", r.failed, r.attempted)
}

// worse returns by what share b is worse than a, for a metric whose
// better direction is given; negative when b is better.
func worse(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// printAA compares two untraced runs of the same commit against the
// benchmark's own bounds, in both directions.
func printAA(a, b *runResult) bool {
	fmt.Printf("\n== %s: A/A — two runs of the same commit ==\n", a.workload)
	fmt.Printf("%-22s %14s %14s %9s %7s  %s\n", "metric", "run A", "run B", "diff", "bound", "verdict")
	ok := true
	for _, d := range endToEnd {
		va, vb := a.metrics[d.Name], b.metrics[d.Name]
		diff := math.Max(worse(d.Better, va, vb), worse(d.Better, vb, va))
		verdict := "pass"
		if diff > d.Bound {
			verdict, ok = "FAIL", false
		}
		fmt.Printf("%-22s %14.4f %14.4f %8.2f%% %6.0f%%  %s\n", d.Name, va, vb, diff*100, d.Bound*100, verdict)
	}
	// Simulated quantities are counts: the same seed on the same commit
	// must reproduce them exactly.
	ca, cb := a.rounds[0].counts, b.rounds[0].counts
	for _, name := range sortedKeys(ca) {
		if defUnit(perLayer, name) == "" {
			continue
		}
		verdict := "pass"
		if ca[name] != cb[name] {
			verdict, ok = "FAIL", false
		}
		fmt.Printf("%-22s %14.6f %14.6f %9s %7s  %s\n", name+" (c)", ca[name], cb[name], "", "exact", verdict)
	}
	if a.failed+b.failed > 0 {
		ok = false
	}
	fmt.Printf("%-22s %14d %14d %9s %7s  must be 0\n", "failed ops", a.failed, b.failed, "", "")
	return ok
}

// printPerLayer prints the traced run: every per-layer metric, then the
// share table.
func printPerLayer(t *traceResult) {
	fmt.Printf("\n== %s: per-layer (traced run: %d traced rounds, then the layer ladder) ==\n", t.workload, t.tracedRounds)
	for _, d := range perLayer {
		v, applies := t.metrics[d.Name]
		val := fmt.Sprintf("%14.4f", v)
		if !applies {
			val = fmt.Sprintf("%14s", "-")
		}
		c := ""
		if exactCount(d.Name) {
			c = " (c)"
		}
		fmt.Printf("%-36s %s %-9s%s\n", d.Name, val, d.Unit, c)
	}
	fmt.Printf("\n-- %s: where an op's wall time goes (layer cost x work count / op wall; outside-in estimate) --\n", t.workload)
	fmt.Printf("%-44s %12s %14s %8s\n", "layer: work", "ns/unit", "units/op", "share")
	var sum float64
	for _, s := range t.shares {
		share := s.nsPerUnit * s.unitsPerOp / t.opWallNS
		sum += share
		fmt.Printf("%-44s %12.1f %14.1f %7.1f%%\n", s.label, s.nsPerUnit, s.unitsPerOp, share*100)
	}
	fmt.Printf("%-44s %12s %14s %7.1f%%\n", "unattributed (join kernels, scheduling, GC)", "", "", (1-sum)*100)
	fmt.Printf("spans: %s\n", t.spansPath)
	if len(t.notes) > 0 {
		fmt.Println(strings.Join(t.notes, "\n"))
	}
}
