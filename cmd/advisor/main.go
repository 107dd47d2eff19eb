// Command advisor ranks the seven tertiary join methods for a
// resource configuration using the paper's analytical cost model:
//
//	advisor -r 2500 -s 10000 -mem 16 -disk 500 -rscratch 5000
//
// It prints each method's predicted response time (or why its
// footprint does not fit) and recommends the cheapest method that
// fits — codifying the paper's Section 10 guidance.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	tapejoin "repro"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the flag set printed the usage
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "advisor:", err)
		os.Exit(1)
	}
}

// run parses args and writes the ranking to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("advisor", flag.ContinueOnError)
	rMB := fs.Int64("r", 100, "size of R, the smaller relation (MB)")
	sMB := fs.Int64("s", 1000, "size of S, the larger relation (MB)")
	memMB := fs.Float64("mem", 16, "main memory M (MB)")
	diskMB := fs.Float64("disk", 100, "disk scratch space D (MB)")
	rScratch := fs.Int64("rscratch", 0, "free tape space on R's cartridge (MB)")
	sScratch := fs.Int64("sscratch", 0, "free tape space on S's cartridge (MB)")
	ratio := fs.Float64("speed-ratio", 2, "disk/tape speed ratio X_D/X_T")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sys, err := tapejoin.NewSystem(tapejoin.Config{
		MemoryMB:           *memMB,
		DiskMB:             *diskMB,
		DiskTapeSpeedRatio: *ratio,
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	ranked := sys.Advise(*rMB, *sMB, *rScratch, *sScratch)
	fmt.Fprintf(w, "join of R=%d MB with S=%d MB;  M=%g MB, D=%g MB, tape scratch R/S = %d/%d MB\n\n",
		*rMB, *sMB, *memMB, *diskMB, *rScratch, *sScratch)
	fmt.Fprintf(w, "%-10s  %-14s  %-14s  %-9s  %s\n", "method", "predicted", "setup (step I)", "rel. cost", "notes")
	for _, e := range ranked {
		if e.Feasible {
			fmt.Fprintf(w, "%-10s  %-14v  %-14v  %-9.1f\n",
				e.Method, e.Response.Round(0), e.StepI.Round(0), e.RelativeCost)
		} else {
			fmt.Fprintf(w, "%-10s  %-14s  %-14s  %-9s  %s\n", e.Method, "-", "-", "-", e.Reason)
		}
	}
	if len(ranked) > 0 && ranked[0].Feasible {
		fmt.Fprintf(w, "\nrecommended: %s\n", ranked[0].Method)
	} else {
		fmt.Fprintln(w, "\nno method is feasible with these resources")
	}
	return nil
}
