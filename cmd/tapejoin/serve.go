package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	tapejoin "repro"
	"repro/internal/service"
)

// serveCmd runs the resident multi-tenant join daemon: an HTTP/JSON
// service over one long-lived device complex, with online cost-model
// admission, shared S-scan merging, per-tenant quotas and graceful
// drain on SIGTERM/SIGINT. It serves the synthetic catalog of
// catalogSpec:
//
//	POST /join       one join query (JSON body; JSONL response stream)
//	GET  /relations  the catalog
//	GET  /stats      admission + scheduler counters
//	GET  /metrics, /health, /flight, /debug/pprof   live telemetry
//
// Example:
//
//	tapejoin serve -addr 127.0.0.1:8080 -policy shared-scan -merge-window 50ms
//	curl -s http://127.0.0.1:8080/join -d '{"r":"R1","s":"S1","stream":true}'
func serveCmd(fs *flag.FlagSet) func(io.Writer, []string) error {
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
	quota := fs.Int("quota", 0, "per-tenant outstanding-query quota (0 = unlimited)")
	maxShared := fs.Int("max-shared", 0, "max riders per shared S-pass (0 = default 4)")
	mountSecs := fs.Float64("mount-seconds", 30, "cartridge exchange cost (virtual seconds)")
	spec := daemonCatalog
	fs.IntVar(&spec.nS, "s-rels", spec.nS, "number of S relations (one cartridge each)")
	fs.IntVar(&spec.nR, "r-rels", spec.nR, "number of R relations (two per cartridge)")
	fs.Int64Var(&spec.sMB, "smb", spec.sMB, "size of each S relation (MB)")
	fs.Int64Var(&spec.rMB, "rmb", spec.rMB, "size of each R relation (MB)")
	fs.Int64Var(&spec.seed, "seed", spec.seed, "dataset seed")
	fs.Uint64Var(&spec.keyspace, "keyspace", spec.keyspace, "join key space")
	flags := systemFlags(fs, defaults{memMB: 8, diskMB: 64},
		"mem", "disk", "backend", "file-pace", "policy", "cache", "merge-window")

	return func(w io.Writer, _ []string) error {
		cfg, err := flags.config()
		if err != nil {
			return err
		}
		d, err := startDaemon(cfg, spec, tapejoin.ServiceOptions{
			Addr:         *addr,
			Policy:       tapejoin.BatchPolicy(flags.policy),
			CacheMB:      flags.cacheMB,
			MountSeconds: *mountSecs,
			MaxShared:    *maxShared,
			MergeWindow:  flags.mergeWindow,
			TenantQuota:  *quota,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "tapejoin serve listening on %s  policy=%s  catalog=%d relations  M=%g MB  D=%g MB\n",
			d.svc.URL(), flags.policy, len(d.rNames)+len(d.sNames), cfg.MemoryMB, cfg.DiskMB)
		fmt.Fprintln(w, "endpoints: POST /join  GET /relations /stats /metrics /health /flight")

		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
		sig := <-sigs
		fmt.Fprintf(w, "received %s: draining (in-flight queries finish, new work gets 503)\n", sig)
		if err := d.stop(); err != nil {
			return err
		}
		st := d.svc.Stats()
		fmt.Fprintf(w, "drained: served=%d failed=%d mounts=%d shared-passes=%d\n",
			st.Engine.Served, st.Engine.Failed, st.Engine.Mounts, st.Engine.SharedPasses)
		return nil
	}
}

// daemon is a running service on a system of its own.
type daemon struct {
	sys            *tapejoin.System
	svc            *tapejoin.Service
	rNames, sNames []string
}

// startDaemon builds a system from cfg, creates the catalog of spec on
// it and starts the service with opts over that catalog. When it fails
// it closes whatever it built.
func startDaemon(cfg tapejoin.Config, spec catalogSpec, opts tapejoin.ServiceOptions) (*daemon, error) {
	sys, err := tapejoin.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	d := &daemon{sys: sys}
	rRels, sRels, err := catalog(sys, spec)
	if err != nil {
		sys.Close()
		return nil, err
	}
	opts.Catalog = make(map[string]*tapejoin.Relation, len(rRels)+len(sRels))
	for _, r := range rRels {
		opts.Catalog[r.Name()] = r
		d.rNames = append(d.rNames, r.Name())
	}
	for _, s := range sRels {
		opts.Catalog[s.Name()] = s
		d.sNames = append(d.sNames, s.Name())
	}
	if d.svc, err = sys.StartService(opts); err != nil {
		sys.Close()
		return nil, err
	}
	return d, nil
}

// stop drains the service, then closes the system whatever the drain
// returned.
func (d *daemon) stop() error {
	return errors.Join(d.svc.Drain(), d.sys.Close())
}

// loadCmd is the deterministic load generator and replay client for
// the daemon. Given a seed it expands a reproducible query workload,
// drives it through concurrent HTTP clients, verifies that every query
// got exactly one result, and reports wall-clock latency percentiles
// plus the daemon's mount churn and shared-pass counts. With
// -stop-after n every query becomes a streamed LIMIT-n and the report
// adds p50/p99 wall time to each query's first delivered pair.
//
//	tapejoin load -addr http://127.0.0.1:8080 -queries 200 -clients 50
//	    replay against a running daemon (catalog discovered via
//	    GET /relations)
//
//	tapejoin load -compare -queries 200 -clients 50
//	    self-host: run the same workload against an in-process daemon
//	    over daemonCatalog under each policy (fifo, mount-aware,
//	    shared-scan) and print the latency / mount-churn comparison
func loadCmd(fs *flag.FlagSet) func(io.Writer, []string) error {
	addr := fs.String("addr", "", "base URL of a running daemon (e.g. http://127.0.0.1:8080)")
	compare := fs.Bool("compare", false, "self-host and compare fifo vs mount-aware vs shared-scan")
	queries := fs.Int("queries", 100, "total queries")
	clients := fs.Int("clients", 20, "concurrent clients")
	tenants := fs.Int("tenants", 4, "tenant labels")
	seed := fs.Int64("seed", 1, "workload seed")
	streamEvery := fs.Int("stream-every", 10, "stream pairs on every Nth query (0 = never)")
	stopAfter := fs.Int64("stop-after", 0, "stop every join after n pairs (true LIMIT-n; forces streaming so the report's time-to-first-pair column is observable; 0 = run joins to completion)")
	priorities := fs.Int("priorities", 1, "priority levels")
	deadlineMS := fs.Int64("deadline-ms", 0, "per-query service deadline (0 = none)")
	flags := systemFlags(fs, defaults{memMB: 8, diskMB: 64, cacheMB: 4, mergeWindow: 10 * time.Millisecond},
		"mem", "disk", "cache", "merge-window")

	return func(w io.Writer, _ []string) error {
		spec := service.LoadSpec{
			Seed: *seed, Queries: *queries, Tenants: *tenants,
			StreamEvery: *streamEvery, PriorityLevels: *priorities, DeadlineMS: *deadlineMS,
			StopAfter: *stopAfter,
		}
		switch {
		case *addr != "" && *compare:
			return errors.New("-addr replays against a running daemon and -compare self-hosts one: give one")
		case *addr != "":
			return replayAgainst(w, *addr, spec, *clients)
		case *compare:
			cfg, err := flags.config()
			if err != nil {
				return err
			}
			return comparePolicies(w, cfg, spec, *clients, flags.cacheMB, flags.mergeWindow)
		default:
			return errors.New("need -addr or -compare")
		}
	}
}

// replayAgainst drives one replay at a live daemon and prints the
// report plus the daemon's scheduler-counter deltas.
func replayAgainst(w io.Writer, base string, spec service.LoadSpec, clients int) error {
	rows, err := service.FetchRelations(base)
	if err != nil {
		return err
	}
	rNames, sNames := service.SplitCatalog(rows)
	if len(rNames) == 0 || len(sNames) == 0 {
		return fmt.Errorf("catalog split failed: R=%v S=%v", rNames, sNames)
	}
	before, err := service.FetchStats(base)
	if err != nil {
		return err
	}
	reqs := service.GenLoad(spec, rNames, sNames)
	rep := service.Replay(base, clients, reqs)
	after, err := service.FetchStats(base)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, rep.Summary())
	fmt.Fprintf(w, "daemon: policy=%s mounts+%d shared-passes+%d riders+%d cache-hits+%d\n",
		after.Policy,
		after.Engine.Mounts-before.Engine.Mounts,
		after.Engine.SharedPasses-before.Engine.SharedPasses,
		after.Engine.SharedRiders-before.Engine.SharedRiders,
		after.Engine.CacheHits-before.Engine.CacheHits)
	printFailures(w, rep)
	if rep.Broken > 0 {
		return fmt.Errorf("%d queries lost, duplicated or errored", rep.Broken)
	}
	return nil
}

// policyRow is one policy's line of the comparison table.
type policyRow struct {
	policy       tapejoin.BatchPolicy
	rep          *service.Report
	st           service.StatsBody
	hashMismatch int
}

// comparePolicies runs the identical workload against a fresh
// in-process daemon per policy and prints the side-by-side table the
// paper's batch experiments make for the online setting: fifo thrashes
// mounts, mount-aware groups them, shared-scan additionally fuses
// same-S queries onto shared passes.
func comparePolicies(w io.Writer, cfg tapejoin.Config, spec service.LoadSpec, clients int,
	cacheMB float64, mergeWindow time.Duration) error {

	var rows []policyRow
	baseline := map[string]string{} // query ID -> output hash under fifo
	for _, policy := range []tapejoin.BatchPolicy{
		tapejoin.BatchFIFO, tapejoin.BatchMountAware, tapejoin.BatchSharedScan,
	} {
		r, err := replayPolicy(w, cfg, policy, spec, clients, cacheMB, mergeWindow)
		if err != nil {
			return err
		}
		// Cross-policy equivalence: the same query ID must produce the
		// same output hash under every policy. Stopped queries are
		// exempt — a LIMIT-n prefix is a valid sub-multiset, but *which*
		// n pairs arrive first depends on the method and schedule.
		for id, o := range r.rep.Outcomes {
			if o.Err != "" || o.Failed || o.Stopped {
				continue
			}
			if want, ok := baseline[id]; !ok {
				baseline[id] = o.OutputHash
			} else if o.OutputHash != want {
				r.hashMismatch++
			}
		}
		rows = append(rows, r)
	}

	fmt.Fprintf(w, "%-12s %6s %6s %8s %8s %8s %8s %8s %7s %7s %7s %9s\n",
		"policy", "ok", "fail", "p50", "p99", "fp50", "fp99", "wall", "mounts", "shared", "riders", "hash-miss")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %6d %6d %8v %8v %8v %8v %8v %7d %7d %7d %9d\n",
			r.policy, r.rep.OK, r.rep.Failed,
			r.rep.P50.Round(time.Millisecond), r.rep.P99.Round(time.Millisecond),
			r.rep.FP50.Round(time.Millisecond), r.rep.FP99.Round(time.Millisecond),
			r.rep.Wall.Round(time.Millisecond),
			r.st.Engine.Mounts, r.st.Engine.SharedPasses, r.st.Engine.SharedRiders,
			r.hashMismatch)
		if r.hashMismatch > 0 {
			return fmt.Errorf("policy %s: %d output-hash mismatches vs baseline", r.policy, r.hashMismatch)
		}
	}
	return nil
}

// replayPolicy replays the workload against a daemon of its own under
// one policy and stops the daemon on every path.
func replayPolicy(w io.Writer, cfg tapejoin.Config, policy tapejoin.BatchPolicy, spec service.LoadSpec,
	clients int, cacheMB float64, mergeWindow time.Duration) (r policyRow, err error) {

	d, err := startDaemon(cfg, daemonCatalog, tapejoin.ServiceOptions{
		Policy:      policy,
		CacheMB:     cacheMB,
		MergeWindow: mergeWindow,
	})
	if err != nil {
		return r, err
	}
	defer func() { err = errors.Join(err, d.stop()) }()
	rep := service.Replay(d.svc.URL(), clients, service.GenLoad(spec, d.rNames, d.sNames))
	r = policyRow{policy: policy, rep: rep, st: d.svc.Stats()}
	printFailures(w, rep)
	if rep.Broken > 0 {
		return r, fmt.Errorf("policy %s: %d queries lost, duplicated or errored", policy, rep.Broken)
	}
	return r, nil
}

func printFailures(w io.Writer, rep *service.Report) {
	shown := 0
	for _, o := range rep.Outcomes {
		if o.Err == "" && !o.Failed {
			continue
		}
		if shown++; shown > 5 {
			fmt.Fprintln(w, "  ...")
			return
		}
		if o.Err != "" {
			fmt.Fprintf(w, "  broken %s: %s\n", o.ID, o.Err)
		} else {
			fmt.Fprintf(w, "  failed %s: %s\n", o.ID, o.Reason)
		}
	}
}
