package main

import (
	"flag"
	"fmt"
	"io"

	tapejoin "repro"
)

// adviseCmd ranks the join methods for a resource configuration by the
// paper's analytical cost model. It prints each method's predicted
// response time (or why its footprint does not fit) and recommends the
// cheapest method that fits — codifying the paper's Section 10
// guidance.
func adviseCmd(fs *flag.FlagSet) func(io.Writer, []string) error {
	rMB := fs.Int64("r", 100, "size of R, the smaller relation (MB)")
	sMB := fs.Int64("s", 1000, "size of S, the larger relation (MB)")
	rScratch := fs.Int64("rscratch", 0, "free tape space on R's cartridge (MB)")
	sScratch := fs.Int64("sscratch", 0, "free tape space on S's cartridge (MB)")
	flags := systemFlags(fs, defaults{memMB: 16, diskMB: 100}, "mem", "disk", "speed-ratio")

	return func(w io.Writer, _ []string) error {
		cfg, err := flags.config()
		if err != nil {
			return err
		}
		sys, err := tapejoin.NewSystem(cfg)
		if err != nil {
			return err
		}
		defer sys.Close()

		ranked := sys.Advise(*rMB, *sMB, *rScratch, *sScratch)
		fmt.Fprintf(w, "join of R=%d MB with S=%d MB;  M=%g MB, D=%g MB, tape scratch R/S = %d/%d MB\n\n",
			*rMB, *sMB, cfg.MemoryMB, cfg.DiskMB, *rScratch, *sScratch)
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
}
