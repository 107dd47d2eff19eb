package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIFlagsPinned pins every subcommand's flag names and defaults:
// scripts and CI drive them, so adding, removing or re-defaulting a
// flag is a surface change. Update this list on purpose.
func TestCLIFlagsPinned(t *testing.T) {
	want := map[string]string{
		"": "backend=sim backend-dir= batch=0 cache=0 compress=25 disk=100 disks=2 " +
			"events-out= faults= file-pace=0 file-sync=interval " +
			"file-timeout=0s ideal=false keyspace=1048576 limit=0 mem=16 method=CTT-GH " +
			"metrics-out= no-recover=false obs-addr= phases=false policy=mount-aware " +
			"r=100 s=1000 seed=42 speed-ratio=2 split-buffer=false stop-after=0 " +
			"timeline=false trace-out= verify=true",
		"advise": "disk=100 mem=16 r=100 rscratch=0 s=1000 speed-ratio=2 sscratch=0",
		"paper":  "backend=sim exp=all format=text obs-addr= quick=false scale=1",
		"serve": "addr=127.0.0.1:8080 backend=sim cache=0 disk=64 file-pace=0 keyspace=2000 " +
			"max-shared=0 mem=8 merge-window=0s mount-seconds=30 policy=mount-aware " +
			"quota=0 r-rels=4 rmb=1 s-rels=3 seed=42 smb=6",
		"load": "addr= cache=4 clients=20 compare=false deadline-ms=0 disk=64 mem=8 " +
			"merge-window=10ms priorities=1 queries=100 seed=1 stop-after=0 " +
			"stream-every=10 tenants=4",
		"check": "jsonl=false prom=false wall=false",
	}
	if len(commands) != len(want) {
		t.Errorf("%d commands, %d pinned", len(commands), len(want))
	}
	for verb, setup := range commands {
		fs := flag.NewFlagSet(verb, flag.ContinueOnError)
		setup(fs)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
		if g := strings.Join(got, " "); g != want[verb] {
			t.Errorf("tapejoin %s flags:\n got  %s\n want %s", verb, g, want[verb])
		}
	}
}

// TestStrayArgumentsRejected: arguments left after the flags are an
// error that names them, never silently dropped — a verb placed after
// the flags would otherwise run the join mode. The command must fail
// before it runs: nothing is written.
func TestStrayArgumentsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-method", "DT-NB", "-r", "2", "-s", "8", "-mem", "4", "-disk", "16", "-keyspace", "4096", "advise"}, `"advise"`},
		{[]string{"-batch", "3", "extra"}, `"extra"`},
		{[]string{"advise", "-r", "4", "-s", "16", "stray"}, `"stray"`},
		{[]string{"paper", "-exp", "fig1", "fig2"}, `"fig2"`},
		// An empty catalog makes a serve that wrongly ran fail at once
		// instead of waiting for a signal.
		{[]string{"serve", "-addr", "127.0.0.1:0", "-s-rels", "0", "-r-rels", "0", "now"}, `"now"`},
		{[]string{"load", "-compare", "-queries", "3", "x", "y"}, `"x" "y"`},
		{[]string{"load", "-addr", "http://127.0.0.1:1", "-compare"}, "-addr"},
		{[]string{"load"}, "need -addr or -compare"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || errors.Is(err, flag.ErrHelp) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want one naming %s", tc.args, err, tc.want)
		}
		if out.Len() > 0 {
			t.Errorf("%q ran before failing:\n%s", tc.args, out.String())
		}
	}
}

// TestCheckFileBackendExports: the trace, event stream and metrics a
// file-backend join exports pass check with the wall-clock fields
// required, and a truncated trace fails it.
func TestCheckFileBackendExports(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	events := filepath.Join(dir, "events.jsonl")
	metrics := filepath.Join(dir, "metrics.txt")
	var out bytes.Buffer
	if err := run([]string{"-backend=file", "-backend-dir", dir, "-method", "CDT-GH",
		"-r", "2", "-s", "8", "-mem", "2", "-disk", "8", "-keyspace", "4096",
		"-trace-out", trace, "-events-out", events, "-metrics-out", metrics}, &out); err != nil {
		t.Fatalf("file-backend join: %v\n%s", err, out.String())
	}
	for _, args := range [][]string{
		{"check", "-wall", trace},
		{"check", "-jsonl", "-wall", events},
		{"check", "-prom", metrics},
	} {
		out.Reset()
		if err := run(args, &out); err != nil {
			t.Errorf("%q: %v", args, err)
		}
		if want := args[len(args)-1] + ": ok\n"; out.String() != want {
			t.Errorf("%q printed %q, want %q", args, out.String(), want)
		}
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.json")
	if err := os.WriteFile(cut, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", "-wall", trace, cut}, &out); err == nil || !strings.Contains(err.Error(), cut) {
		t.Errorf("truncated trace: error %v, want one naming %s", err, cut)
	}
}
