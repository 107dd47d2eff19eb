// Package exp defines the paper's evaluation as runnable experiments:
// Table 3 (Experiment 1), Figure 4 (buffer utilization), Figure 5
// (Experiment 2), Figures 6–11 (Experiment 3), and the analytical
// Figures 1–3. Each experiment returns structured rows that the
// tapejoin paper command and the benchmark harness print in the paper's
// format.
//
// Every experiment takes a scale factor: 1.0 reproduces the paper's
// exact sizes (|S| up to 10 000 MB); smaller scales shrink the
// workload while preserving each experiment's geometry. Experiment 1
// scales |R|, |S| and D linearly and M by sqrt(scale), which keeps the
// Grace Hash constraint M >= sqrt(|R|) satisfiable; Experiments 2 and
// 3 study the ratios among |R|, M and D, so only |S| — the pure
// workload axis — is scaled.
package exp

import (
	"fmt"
	"math"
	"time"

	tapejoin "repro"
	"repro/internal/obs/obsserver"
)

// ObsServer, when set before experiments run (tapejoin paper -obs-addr),
// is attached to every system the experiments build: one live scrape
// endpoint whose /metrics, /health and /flight follow whichever run
// is currently in flight. Attaching a server implies observability.
var ObsServer *obsserver.Server

// newSystem builds a system, attaching the shared ObsServer when one
// is configured.
func newSystem(cfg tapejoin.Config) (*tapejoin.System, error) {
	cfg.ObsServer = ObsServer
	return tapejoin.NewSystem(cfg)
}

// scaleMB scales a paper size, keeping at least 1 MB.
func scaleMB(mb int64, scale float64) int64 {
	v := int64(math.Round(float64(mb) * scale))
	if v < 1 {
		v = 1
	}
	return v
}

// scaleMBf scales a fractional-MB quantity, keeping at least 2 blocks.
func scaleMBf(mb float64, scale float64) float64 {
	v := mb * scale
	if v < 2.0/float64(tapejoin.BlocksPerMB) {
		v = 2.0 / float64(tapejoin.BlocksPerMB)
	}
	return v
}

// buildJoin creates a system and a pair of relations sized in MB, with
// scratch space for tape-tape methods.
func buildJoin(cfg tapejoin.Config, rMB, sMB int64, seed int64) (*tapejoin.System, *tapejoin.Relation, *tapejoin.Relation, error) {
	sys, err := newSystem(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	// Scratch: CTT-GH appends hashed R to R's tape; TT-GH appends
	// hashed S to R's tape and hashed R to S's tape.
	tR, err := sys.NewTape("tape-R", rMB+sMB+2)
	if err != nil {
		return nil, nil, nil, err
	}
	tS, err := sys.NewTape("tape-S", sMB+rMB+2)
	if err != nil {
		return nil, nil, nil, err
	}
	r, err := sys.CreateRelation(tR, tapejoin.RelationConfig{
		Name: "R", SizeMB: rMB, TuplesPerBlock: 2, KeySpace: 1 << 20, Seed: seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := sys.CreateRelation(tS, tapejoin.RelationConfig{
		Name: "S", SizeMB: sMB, TuplesPerBlock: 2, KeySpace: 1 << 20, Seed: seed + 1,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return sys, r, s, nil
}

// Table3Row is one join of Experiment 1 (Section 7).
type Table3Row struct {
	Join     string
	SMB, RMB int64
	DMB      int64
	BareRead time.Duration // reading S and R once, no processing
	StepI    time.Duration
	Total    time.Duration
	RelCost  float64 // Total / BareRead
}

// Table3 reproduces Experiment 1: Concurrent Tape–Tape Grace Hash Join
// over four parameter points with |S| from 1 000 to 10 000 MB,
// D = |R|/5 on two disks and M = 16 MB, on the calibrated DLT-4000
// profile.
func Table3(scale float64) ([]Table3Row, error) {
	points := []struct {
		name     string
		sMB, rMB int64
	}{
		{"Join I", 1000, 500},
		{"Join II", 2500, 1250},
		{"Join III", 5000, 2500},
		{"Join IV", 10000, 2500},
	}
	rows := make([]Table3Row, 0, len(points))
	for _, pt := range points {
		sMB := scaleMB(pt.sMB, scale)
		rMB := scaleMB(pt.rMB, scale)
		dMB := float64(rMB) / 5
		cfg := tapejoin.Config{
			MemoryMB: scaleMBf(16, math.Sqrt(scale)),
			DiskMB:   dMB,
			Profile:  tapejoin.DLT4000,
		}
		sys, r, s, err := buildJoin(cfg, rMB, sMB, 1000)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pt.name, err)
		}
		res, err := sys.Join(tapejoin.CTTGH, r, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pt.name, err)
		}
		bare := sys.BareReadTime(float64(sMB + rMB))
		rows = append(rows, Table3Row{
			Join: pt.name, SMB: sMB, RMB: rMB, DMB: int64(dMB + 0.5),
			BareRead: bare,
			StepI:    res.Stats.StepI,
			Total:    res.Stats.Response,
			RelCost:  float64(res.Stats.Response) / float64(bare),
		})
	}
	return rows, nil
}

// Fig4Point is one sample of the disk-buffer utilization trace
// (Section 7, Figure 4).
type Fig4Point struct {
	Seconds    float64
	EvenPct    float64 // even-iteration usage, % of buffer
	OddPct     float64
	TotalPct   float64
	CapacityMB float64
}

// Figure4 reproduces the interleaved double-buffering utilization
// trace of CTT-GH Step II at the Join III parameters.
func Figure4(scale float64) ([]Fig4Point, error) {
	sMB := scaleMB(5000, scale)
	rMB := scaleMB(2500, scale)
	cfg := tapejoin.Config{
		MemoryMB: scaleMBf(16, math.Sqrt(scale)),
		DiskMB:   float64(rMB) / 5,
		Profile:  tapejoin.DLT4000,
	}
	sys, r, s, err := buildJoin(cfg, rMB, sMB, 1000)
	if err != nil {
		return nil, err
	}
	res, err := sys.Join(tapejoin.CTTGH, r, s)
	if err != nil {
		return nil, err
	}
	out := make([]Fig4Point, 0, len(res.BufferTrace))
	capMB := res.BufferCapacityMB
	for _, smp := range res.BufferTrace {
		out = append(out, Fig4Point{
			Seconds:    smp.Seconds,
			EvenPct:    100 * smp.EvenMB / capMB,
			OddPct:     100 * smp.OddMB / capMB,
			TotalPct:   100 * (smp.EvenMB + smp.OddMB) / capMB,
			CapacityMB: capMB,
		})
	}
	return out, nil
}

// Fig5Row is one disk-space point of Experiment 2 (Section 8).
type Fig5Row struct {
	DiskMB   float64
	CDTGH    time.Duration // 0 when infeasible
	CTTGH    time.Duration
	CDTGHOk  bool
	CDTGHWhy string
}

// Figure5 reproduces Experiment 2: response time of CDT-GH and CTT-GH
// as disk space shrinks from 3|R| to 0.5|R|, with |R| = 18 MB,
// M = 0.1|R|, |S| = 1000 MB.
func Figure5(scale float64) ([]Fig5Row, error) {
	rMB := int64(18) // the R/M/D geometry is the experiment; only |S| scales
	sMB := scaleMB(1000, scale)
	fractions := []float64{3, 2.5, 2, 1.5, 1.25, 1.11, 1, 0.75, 0.5}
	rows := make([]Fig5Row, 0, len(fractions))
	for _, f := range fractions {
		dMB := f * float64(rMB)
		cfg := tapejoin.Config{
			MemoryMB: 0.1 * float64(rMB),
			DiskMB:   dMB,
			Profile:  tapejoin.DLT4000,
		}
		row := Fig5Row{DiskMB: dMB}

		sys, r, s, err := buildJoin(cfg, rMB, sMB, 2000)
		if err != nil {
			return nil, err
		}
		if res, err := sys.Join(tapejoin.CDTGH, r, s); err == nil {
			row.CDTGH = res.Stats.Response
			row.CDTGHOk = true
		} else {
			row.CDTGHWhy = err.Error()
		}

		// Fresh tapes for the tape-tape run.
		sys2, r2, s2, err := buildJoin(cfg, rMB, sMB, 2000)
		if err != nil {
			return nil, err
		}
		res, err := sys2.Join(tapejoin.CTTGH, r2, s2)
		if err != nil {
			return nil, fmt.Errorf("CTT-GH at D=%.1f MB: %w", dMB, err)
		}
		row.CTTGH = res.Stats.Response
		rows = append(rows, row)
	}
	return rows, nil
}

// Exp3Row is one (method, memory) point of Experiment 3 (Section 9).
type Exp3Row struct {
	Method   tapejoin.Method
	MemFrac  float64 // M / |R|
	Feasible bool
	Reason   string

	Response    time.Duration
	Overhead    float64 // (response - optimum) / optimum
	DiskSpaceMB float64 // Figure 6
	DiskIOMB    float64 // Figure 7
}

// exp3Methods are the disk–tape methods compared in Figures 6–11.
var exp3Methods = []tapejoin.Method{
	tapejoin.DTNB, tapejoin.CDTNBMB, tapejoin.CDTNBDB, tapejoin.DTGH, tapejoin.CDTGH,
}

// Exp3MemFractions is the memory sweep of Experiment 3 (fractions of
// |R|).
var Exp3MemFractions = []float64{0.07, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// Experiment3 reproduces Section 9: disk–tape joins with |R| = 18 MB
// comparable to M, |S| = 1000 MB, D = 50 MB, sweeping memory from
// 0.07|R| to |R| at the given compressibility (the paper's Figures
// 6–9 use 25%, Figure 10 uses 0%, Figure 11 uses 50%).
func Experiment3(scale float64, compression tapejoin.Compression) ([]Exp3Row, error) {
	rMB := int64(18) // the M/|R| sweep is the experiment; only |S| scales
	sMB := scaleMB(1000, scale)
	dMB := float64(50)

	var rows []Exp3Row
	for _, frac := range Exp3MemFractions {
		for _, method := range exp3Methods {
			cfg := tapejoin.Config{
				MemoryMB:    frac * float64(rMB),
				DiskMB:      dMB,
				Profile:     tapejoin.DLT4000,
				Compression: compression,
			}
			row := Exp3Row{Method: method, MemFrac: frac}
			sys, r, s, err := buildJoin(cfg, rMB, sMB, 3000)
			if err != nil {
				return nil, err
			}
			res, err := sys.Join(method, r, s)
			if err != nil {
				row.Reason = err.Error()
				rows = append(rows, row)
				continue
			}
			optimum := sys.BareReadTime(float64(sMB))
			row.Feasible = true
			row.Response = res.Stats.Response
			row.Overhead = float64(res.Stats.Response-optimum) / float64(optimum)
			row.DiskSpaceMB = res.Stats.DiskPeakMB
			row.DiskIOMB = res.Stats.DiskTrafficMB()
			rows = append(rows, row)
		}
	}
	return rows, nil
}
