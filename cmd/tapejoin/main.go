// Command tapejoin is the one binary of the reproduction. Without a
// subcommand it runs a single tertiary join on the simulated device
// complex and reports its statistics:
//
//	tapejoin -method CTT-GH -r 2500 -s 10000 -mem 16 -disk 500
//
// Sizes are in megabytes (the paper's units). The output reports the
// virtual response time, phase breakdown, device traffic, and the
// verified join cardinality.
//
// With -batch N it instead runs a synthetic N-query workload through
// the multi-query engine, scheduling the batch over the shared drives
// under -policy (fifo, mount-aware or shared-scan):
//
//	tapejoin -batch 9 -policy shared-scan -r 4 -s 64 -mem 16 -disk 128 -cache 32
//
// Every system flag (-compress, -faults, -timeline, the observability
// outputs, ...) applies to both modes. In batch mode the cost advisor
// picks each query's method unless -method is given explicitly.
//
// The subcommands come first on the command line:
//
//	tapejoin advise -r 2500 -s 10000 -mem 16 -disk 500 -rscratch 5000
//	    rank the methods by the analytical cost model (Section 10)
//	tapejoin paper -exp table3
//	    regenerate a table or figure of the paper's evaluation
//	tapejoin serve -addr 127.0.0.1:8080 -policy shared-scan
//	    run the resident HTTP/JSON join daemon until SIGTERM/SIGINT
//	tapejoin load -addr http://127.0.0.1:8080 -queries 200 -clients 50
//	    replay a deterministic query load against a daemon, or with
//	    -compare against an in-process daemon under every policy
//	tapejoin check [-jsonl | -prom] [-wall] <file> ...
//	    validate exported traces, event streams and metrics
//
// Each subcommand prints its flags with -h. Every error exits 1 with
// one line on stderr; only check takes arguments after its flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	tapejoin "repro"
)

// commands maps each verb to its setup, which registers the verb's
// flags and returns the function that runs it on the parsed values.
// The empty verb is the single join and -batch mode.
var commands = map[string]func(fs *flag.FlagSet) func(w io.Writer, args []string) error{
	"":       joinCmd,
	"advise": adviseCmd,
	"paper":  paperCmd,
	"serve":  serveCmd,
	"load":   loadCmd,
	"check":  checkCmd,
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the flag set printed the usage
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run dispatches args to the subcommand its first word names, or to
// the join mode, and writes the report to w. The error it returns
// starts with the command's name.
func run(args []string, w io.Writer) (err error) {
	verb := ""
	if len(args) > 0 && commands[args[0]] != nil {
		verb, args = args[0], args[1:]
	}
	name := strings.TrimSpace("tapejoin " + verb)
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
	}()
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	cmd := commands[verb](fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if verb != "check" && fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (a subcommand goes first: tapejoin advise|paper|serve|load|check [flags])",
			fs.Args())
	}
	return cmd(w, fs.Args())
}

// sysFlags holds the values of the system flags a subcommand
// registered. A flag it did not register keeps its zero value, which
// tapejoin.Config reads as that setting's default.
type sysFlags struct {
	cfg         tapejoin.Config
	compress    int
	ideal       bool
	policy      string
	cacheMB     float64
	mergeWindow time.Duration
}

// defaults supplies the flags whose default differs between
// subcommands; every other system flag has one default everywhere.
type defaults struct {
	memMB, diskMB, cacheMB float64
	mergeWindow            time.Duration
}

// systemFlags registers the named system flags on fs, each with its one
// usage text.
func systemFlags(fs *flag.FlagSet, d defaults, names ...string) *sysFlags {
	f := &sysFlags{compress: 25}
	c := &f.cfg
	for _, name := range names {
		switch name {
		case "mem":
			fs.Float64Var(&c.MemoryMB, name, d.memMB, "main memory M (MB)")
		case "disk":
			fs.Float64Var(&c.DiskMB, name, d.diskMB, "disk scratch space D (MB)")
		case "disks":
			fs.IntVar(&c.NumDisks, name, 2, "number of disk drives n")
		case "speed-ratio":
			fs.Float64Var(&c.DiskTapeSpeedRatio, name, 2, "disk/tape speed ratio X_D/X_T")
		case "compress":
			fs.IntVar(&f.compress, name, 25, "tape data compressibility: 0, 25 or 50 (%)")
		case "ideal":
			fs.BoolVar(&f.ideal, name, false, "use the paper's idealized cost model (no seeks or penalties)")
		case "split-buffer":
			fs.BoolVar(&c.SplitBuffering, name, false, "use naive split double-buffering instead of interleaved")
		case "faults":
			fs.StringVar(&c.Faults, name, "", `fault schedule to inject, e.g. "transient=R:100:2,diskfail=1@40s" or "random=7:3"`)
		case "no-recover":
			fs.BoolVar(&c.DisableRecovery, name, false, "disable retry/checkpoint/degrade recovery (faults become fatal)")
		case "backend":
			fs.StringVar(&c.Backend, name, "sim", "storage backend: sim (virtual-time simulator) or file (real OS files, wall-clock transfers)")
		case "backend-dir":
			fs.StringVar(&c.BackendDir, name, "", "scratch directory for -backend=file (default: the OS temp directory)")
		case "file-sync":
			fs.StringVar(&c.FileSync, name, "interval", "-backend=file fsync policy: none, interval or always")
		case "file-pace":
			fs.Float64Var(&c.FilePace, name, 0, "-backend=file: emulate modeled device bandwidths sped up this factor in wall-clock (0 = page-cache speed)")
		case "file-timeout":
			fs.DurationVar(&c.FileOpTimeout, name, 0, "-backend=file: wall-clock deadline per device operation; overruns degrade the device and trip its breaker (0 = no deadline)")
		case "obs-addr":
			fs.StringVar(&c.ObsAddr, name, "", "serve live telemetry (/metrics, /health, /flight, /debug/pprof) on this address while runs are in flight, e.g. 127.0.0.1:9100 (implies observability)")
		case "policy":
			fs.StringVar(&f.policy, name, "mount-aware", "scheduling policy: fifo, mount-aware or shared-scan")
		case "cache":
			fs.Float64Var(&f.cacheMB, name, d.cacheMB, "disk staging cache (MB, 0 = disabled)")
		case "merge-window":
			fs.DurationVar(&f.mergeWindow, name, d.mergeWindow, "hold a shared-scan seed this long for same-S arrivals")
		default:
			panic("tapejoin: no system flag " + name)
		}
	}
	return f
}

// config returns the tapejoin.Config the flags describe.
func (f *sysFlags) config() (tapejoin.Config, error) {
	cfg := f.cfg
	switch f.compress {
	case 0:
		cfg.Compression = tapejoin.Compress0
	case 25:
		cfg.Compression = tapejoin.Compress25
	case 50:
		cfg.Compression = tapejoin.Compress50
	default:
		return cfg, fmt.Errorf("compress must be 0, 25 or 50, got %d", f.compress)
	}
	if f.ideal {
		cfg.Profile = tapejoin.IdealTape
	}
	return cfg, nil
}

// catalogSpec describes the synthetic dataset of every multi-query
// mode: nS S relations of sMB each on a cartridge of their own, and nR
// R relations of rMB packed two per cartridge, so mount churn and
// shared scans have something to bite on.
type catalogSpec struct {
	nS, nR   int
	sMB, rMB int64
	seed     int64
	keyspace uint64
}

// daemonCatalog is the daemon's default dataset and the fixed one of
// load -compare: 3 × 6 MB S relations and 4 × 1 MB R relations.
var daemonCatalog = catalogSpec{nS: 3, nR: 4, sMB: 6, rMB: 1, seed: 42, keyspace: 2000}

// catalog creates the relations of spec on sys: S relation i has seed
// spec.seed+100+i, R relation i has seed spec.seed+i.
func catalog(sys *tapejoin.System, spec catalogSpec) (rRels, sRels []*tapejoin.Relation, err error) {
	create := func(name, tape string, tapeMB, sizeMB, seed int64) (*tapejoin.Relation, error) {
		t, err := sys.NewTape(tape, tapeMB)
		if err != nil {
			return nil, err
		}
		return sys.CreateRelation(t, tapejoin.RelationConfig{
			Name: name, SizeMB: sizeMB, KeySpace: spec.keyspace, Seed: seed,
		})
	}
	sRels = make([]*tapejoin.Relation, spec.nS)
	for i := range sRels {
		sRels[i], err = create(fmt.Sprintf("S%d", i+1), fmt.Sprintf("tape-S%d", i+1),
			spec.sMB+2, spec.sMB, spec.seed+int64(100+i))
		if err != nil {
			return nil, nil, err
		}
	}
	rRels = make([]*tapejoin.Relation, spec.nR)
	for i := range rRels {
		rRels[i], err = create(fmt.Sprintf("R%d", i+1), fmt.Sprintf("tape-R%d", i/2+1),
			2*spec.rMB+2, spec.rMB, spec.seed+int64(i))
		if err != nil {
			return nil, nil, err
		}
	}
	return rRels, sRels, nil
}
