// Package cost implements the paper's transfer-only analytical cost
// model (Sections 3.2 and 5.3) for the seven tertiary join methods.
// It prices time only: whether a method fits its resources is the
// method's footprint in package join (the paper's Table 2), and the
// estimates assume it does. The formulas below regenerate Figures 1–3
// and rank the methods that fit; Section 5.3 derives them "based on
// [13]" without printing them, so each function documents its own
// derivation from the method's structure.
//
// Conventions: sizes are in paper blocks; t_T(n) and t_D(n) are the
// tape and disk transfer times of n blocks; the memory split follows
// Section 6 (10% of M scans R in NB methods); Grace Hash uses the
// idealized B = |R|/M buckets of M blocks each. Concurrent methods
// overlap device legs with max(), treating the disk array as one
// shared resource whose work adds up. EstimateShared alone also charges
// each disk request's positioning and stripe rounding (Requests): the
// shared pass re-reads R in requests too small for the paper's
// transfer-only assumption.
package cost

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/block"
)

// Params are the inputs to the model: the paper's |R|, |S|, M, D, X_T
// and X_D.
type Params struct {
	RBlocks, SBlocks int64
	MBlocks, DBlocks int64
	// TapeRate is X_T in bytes/second (effective, after compression).
	TapeRate float64
	// DiskRate is X_D, the aggregate disk rate in bytes/second.
	DiskRate float64
	// MaxKeyFrac is the fraction of tuples carried by the single most
	// frequent join key (0 = uniform keys; hashutil.ZipfMaxKeyFrac
	// supplies it for Zipf(theta) data). Under the uniform hash planner
	// the bucket receiving that key outgrows one memory load, and Step
	// II re-scans the matching S bucket once per extra load — the
	// multi-load fallback the Grace Hash methods pay for skew.
	MaxKeyFrac float64
	// SkewAware models the skew-aware partitioning layer: heavy keys
	// get dedicated partitions and collision-overflow buckets are
	// split, so no partition exceeds one memory load and the
	// multi-load penalty vanishes (the sketch and plan repair ride on
	// scans the methods make anyway, so their cost is second-order in
	// the transfer-only model).
	SkewAware bool
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.RBlocks < 1 || p.SBlocks < p.RBlocks {
		return fmt.Errorf("cost: need 1 <= |R| <= |S|, got %d, %d", p.RBlocks, p.SBlocks)
	}
	if p.MBlocks < 1 || p.DBlocks < 1 {
		return fmt.Errorf("cost: need M, D >= 1, got %d, %d", p.MBlocks, p.DBlocks)
	}
	if p.TapeRate <= 0 || p.DiskRate <= 0 {
		return errors.New("cost: rates must be positive")
	}
	if p.MaxKeyFrac < 0 || p.MaxKeyFrac > 1 {
		return fmt.Errorf("cost: MaxKeyFrac %v outside [0, 1]", p.MaxKeyFrac)
	}
	return nil
}

// tT returns the tape transfer time of n blocks in seconds.
func (p Params) tT(n float64) float64 { return n * block.VirtualSize / p.TapeRate }

// tD returns the disk transfer time of n blocks in seconds.
func (p Params) tD(n float64) float64 { return n * block.VirtualSize / p.DiskRate }

// SReadSeconds is the bare tape read time of S: the paper's "optimum
// join time" baseline of Section 9.
func (p Params) SReadSeconds() float64 { return p.tT(float64(p.SBlocks)) }

// nbSplit mirrors Section 6: 10% of M (>= 1 block) scans R.
func (p Params) nbSplit() (mr, ms float64) {
	mr = math.Max(1, float64(p.MBlocks)/10)
	return mr, float64(p.MBlocks) - mr
}

// Estimate is the model's prediction for one method.
type Estimate struct {
	Method string
	// Seconds is the predicted response time; +Inf when Err is set.
	Seconds float64
	// StepISeconds is the predicted setup-phase time.
	StepISeconds float64
	// DiskSpaceBlocks is the predicted peak disk footprint (Figure 6).
	DiskSpaceBlocks int64
	// DiskTrafficBlocks is the predicted total disk I/O (Figure 7).
	DiskTrafficBlocks int64
	// Err reports why the method has no price (invalid parameters,
	// an unknown method, or, from join's ranking, a footprint that
	// does not fit), or is nil.
	Err error
}

// Relative returns the response time divided by the bare S read time
// (the y axis of Figures 1–3).
func (e Estimate) Relative(p Params) float64 {
	if e.Err != nil {
		return math.Inf(1)
	}
	return e.Seconds / p.SReadSeconds()
}

// Overhead returns the relative join overhead of Section 9:
// (response - optimum) / optimum.
func (e Estimate) Overhead(p Params) float64 {
	if e.Err != nil {
		return math.Inf(1)
	}
	return e.Seconds/p.SReadSeconds() - 1
}

// unpriced is the estimate of a method the model cannot price.
func unpriced(method string, err error) Estimate {
	return Estimate{Method: method, Seconds: math.Inf(1), Err: err}
}

// ghBuckets returns the idealized Grace Hash bucket count B = |R|/M
// (Section 5.1.2).
func (p Params) ghBuckets() float64 {
	return math.Ceil(float64(p.RBlocks) / float64(p.MBlocks))
}

// ghSkewExtra returns the extra S blocks the uniform Grace Hash
// planner re-scans under key skew, given B buckets: the heaviest
// bucket holds its uniform share |R|/B plus the heavy key's f*|R|,
// needs ceil of that over one memory load (M-1 blocks; one block
// scans S), and every load past the first re-reads the bucket's S
// share (|S|/B + f*|S|). Zero when uniform, when the bucket still
// fits one load, or when the skew-aware planner absorbs the skew.
func (p Params) ghSkewExtra(b float64) float64 {
	if p.MaxKeyFrac <= 0 || p.SkewAware {
		return 0
	}
	r, s, m := float64(p.RBlocks), float64(p.SBlocks), float64(p.MBlocks)
	heavyR := r/b + p.MaxKeyFrac*r
	loads := math.Ceil(heavyR / math.Max(1, m-1))
	if loads <= 1 {
		return 0
	}
	return (loads - 1) * (s/b + p.MaxKeyFrac*s)
}

// EstimateMethod predicts one method's cost, assuming it fits the
// resources. Method symbols follow the paper ("DT-NB", "CDT-NB/MB",
// "CDT-NB/DB", "DT-GH", "CDT-GH", "CTT-GH", "TT-GH") plus the "TT-SM"
// baseline.
func EstimateMethod(method string, p Params) Estimate {
	if err := p.Validate(); err != nil {
		return unpriced(method, err)
	}
	switch method {
	case "DT-NB":
		return p.dtNB()
	case "CDT-NB/MB":
		return p.cdtNBMB()
	case "CDT-NB/DB":
		return p.cdtNBDB()
	case "DT-GH":
		return p.dtGH()
	case "CDT-GH":
		return p.cdtGH()
	case "CTT-GH":
		return p.cttGH()
	case "TT-GH":
		return p.ttGH()
	case "TT-SM":
		return p.ttSM()
	}
	return unpriced(method, fmt.Errorf("cost: unknown method %q", method))
}

// ttSM estimates the tape sort-merge baseline under the transfer-only
// model: each relation forms ceil(N/M) runs, then log_k passes of
// read-all + write-all with fan-in k ~ M-2, then one streaming merge
// join. The model is charitable to the baseline — it ignores the tape
// seek per merge-input refill that dominates on real drives — and the
// baseline still loses to the hash methods.
//
//	T = sum over X in {R, S} of (1 + passes(X)) * 2 t_T(X)  +  t_T(R) + t_T(S)
func (p Params) ttSM() Estimate {
	r, s, m := float64(p.RBlocks), float64(p.SBlocks), float64(p.MBlocks)
	k := math.Max(2, m-2)
	passes := func(n float64) float64 {
		runs := math.Ceil(n / m)
		if runs <= 1 {
			return 0
		}
		return math.Ceil(math.Log(runs) / math.Log(k))
	}
	sortCost := func(n float64) float64 {
		return (1 + passes(n)) * 2 * p.tT(n)
	}
	stepI := sortCost(r) + sortCost(s)
	return Estimate{
		Method:            "TT-SM",
		StepISeconds:      stepI,
		Seconds:           stepI + p.tT(r) + p.tT(s),
		DiskSpaceBlocks:   0,
		DiskTrafficBlocks: 0,
	}
}

// dtNB: Step I copies R (tape read + disk write, sequential). Step II
// makes ceil(|S|/Ms) iterations, each reading Ms blocks of S from tape
// and scanning R from disk:
//
//	T = t_T(R) + t_D(R) + t_T(S) + ceil(S/Ms) * t_D(R)
func (p Params) dtNB() Estimate {
	r, s := float64(p.RBlocks), float64(p.SBlocks)
	_, ms := p.nbSplit()
	iters := math.Ceil(s / ms)
	stepI := p.tT(r) + p.tD(r)
	return Estimate{
		Method:            "DT-NB",
		StepISeconds:      stepI,
		Seconds:           stepI + p.tT(s) + iters*p.tD(r),
		DiskSpaceBlocks:   p.RBlocks,
		DiskTrafficBlocks: p.RBlocks + int64(iters)*p.RBlocks,
	}
}

// cdtNBMB: as DT-NB but with two half-size S buffers; each iteration
// overlaps the tape read of the next chunk with the R scan of the
// current one:
//
//	T = t_T(R) + t_D(R) + t_T(Ms) + ceil(S/Ms) * max(t_T(Ms), t_D(R))
//
// (the leading t_T(Ms) fills the pipeline).
func (p Params) cdtNBMB() Estimate {
	r, s := float64(p.RBlocks), float64(p.SBlocks)
	_, msTotal := p.nbSplit()
	ms := msTotal / 2
	iters := math.Ceil(s / ms)
	stepI := p.tT(r) + p.tD(r)
	return Estimate{
		Method:            "CDT-NB/MB",
		StepISeconds:      stepI,
		Seconds:           stepI + p.tT(ms) + iters*math.Max(p.tT(ms), p.tD(r)),
		DiskSpaceBlocks:   p.RBlocks,
		DiskTrafficBlocks: p.RBlocks + int64(iters)*p.RBlocks,
	}
}

// SharedSplit is the memory split of a shared S-scan whose k riders
// share M blocks. Each rider scans its R through mr blocks: half its
// M/k share, capped at the preferred request size ioChunk so re-scans
// amortize disk positioning, and at least one block. The two S chunk
// buffers split what the riders leave, ms = (M − k·mr)/2; the pass
// cannot run when ms < 1.
func SharedSplit(m, k, ioChunk int64) (mr, ms int64) {
	mr = max(min(m/k/2, ioChunk), 1)
	return mr, (m - k*mr) / 2
}

// Requests is the per-request disk cost that the transfer-only model
// drops: every request pays Positioning seconds (seek + rotation), and
// an n-block request striped over Disks drives lasts as long as its
// largest share, ceil(n/Disks) blocks at one drive's rate.
type Requests struct {
	Disks       int
	Positioning float64
}

// tReq returns the service time of one n-block disk request.
func (p Params) tReq(n float64, rq Requests) float64 {
	d := float64(max(rq.Disks, 1))
	return rq.Positioning + p.tD(math.Ceil(n/d)*d)
}

// EstimateShared predicts a shared S-scan: an NB join in which every
// rider stages its R_i to disk, S streams from tape once in two chunk
// buffers of ms blocks, and each chunk is joined against every rider's
// R_i, re-read from disk in requests of mr blocks (SharedSplit):
//
//	T = Σ[t_T(R_i) + t_D(R_i)] + t_T(ms) + ceil(S/ms) · max(t_T(ms), Σ scan(R_i))
//	scan(R) = floor(R/mr) · t_req(mr) + t_req(R mod mr)
//	t_req(n) = t_pos + t_D(n rounded up to whole stripes)
//
// p supplies |S|, M and the rates; its RBlocks and DBlocks are
// ignored. t_req is the term the transfer-only model lacks: mr is at
// most one IOChunk, so the re-scans are ceil(R_i/mr) small requests
// per chunk, and their positioning decides the price when S is large
// and M small.
func EstimateShared(p Params, riders []int64, ioChunk int64, rq Requests) Estimate {
	const method = "SHARED"
	k := int64(len(riders))
	if k == 0 || p.SBlocks < 1 || p.TapeRate <= 0 || p.DiskRate <= 0 {
		return unpriced(method, errors.New("cost: a shared pass needs riders, |S| >= 1 and positive rates"))
	}
	mr, ms := SharedSplit(p.MBlocks, k, ioChunk)
	if ms < 1 {
		return unpriced(method, fmt.Errorf("cost: M=%d cannot buffer S for %d riders", p.MBlocks, k))
	}
	var rSum, scan, stepI float64
	for _, r := range riders {
		rf := float64(r)
		rSum += rf
		stepI += p.tT(rf) + p.tD(rf)
		scan += float64(r/mr) * p.tReq(float64(mr), rq)
		if rem := r % mr; rem > 0 {
			scan += p.tReq(float64(rem), rq)
		}
	}
	s, msf := float64(p.SBlocks), float64(ms)
	iters := math.Ceil(s / msf)
	return Estimate{
		Method:            method,
		StepISeconds:      stepI,
		Seconds:           stepI + p.tT(msf) + iters*math.Max(p.tT(msf), scan),
		DiskSpaceBlocks:   int64(rSum),
		DiskTrafficBlocks: int64(rSum) + int64(iters*rSum),
	}
}

// cdtNBDB: full-size chunks staged through a disk buffer. Per
// iteration the producer leg costs t_T(Ms) of tape, and the disk (one
// shared resource) moves the chunk in and out plus the R scan:
//
//	T = t_T(R) + t_D(R) + ceil(S/Ms) * max(t_T(Ms), t_D(2 Ms + R)) + t_T(Ms)
func (p Params) cdtNBDB() Estimate {
	r, s := float64(p.RBlocks), float64(p.SBlocks)
	_, ms := p.nbSplit()
	iters := math.Ceil(s / ms)
	stepI := p.tT(r) + p.tD(r)
	return Estimate{
		Method:            "CDT-NB/DB",
		StepISeconds:      stepI,
		Seconds:           stepI + iters*math.Max(p.tT(ms), p.tD(2*ms+r)) + p.tT(ms),
		DiskSpaceBlocks:   p.RBlocks + int64(ms),
		DiskTrafficBlocks: p.RBlocks + int64(iters)*p.RBlocks + 2*p.SBlocks,
	}
}

// dtGH: Step I hashes R to disk. Step II iterates d = D - |R| chunks
// of S: hash the chunk to disk, read it back, and re-read R's buckets:
//
//	T = t_T(R) + t_D(R) + ceil(S/d) * [t_T(d) + 2 t_D(d) + t_D(R)]
func (p Params) dtGH() Estimate {
	r, s := float64(p.RBlocks), float64(p.SBlocks)
	d := float64(p.DBlocks - p.RBlocks)
	iters := math.Ceil(s / d)
	extra := p.ghSkewExtra(p.ghBuckets())
	stepI := p.tT(r) + p.tD(r)
	return Estimate{
		Method:            "DT-GH",
		StepISeconds:      stepI,
		Seconds:           stepI + p.tT(s) + 2*p.tD(s) + iters*p.tD(r) + p.tD(extra),
		DiskSpaceBlocks:   p.DBlocks,
		DiskTrafficBlocks: p.RBlocks + int64(iters)*p.RBlocks + 2*p.SBlocks + int64(extra),
	}
}

// cdtGH: as DT-GH with the S-side pipeline overlapped. With chunks of
// c = S/ceil(S/d) blocks, the first chunk's tape hash fills the
// pipeline, each steady-state iteration costs the larger of the tape
// leg t_T(c) and the shared disk's t_D(2c + R), and the final join
// drains with no hashing behind it:
//
//	T = t_T(R) + t_D(R) + t_T(c) + (iters-1) max(t_T(c), t_D(2c+R)) + t_D(c+R)
func (p Params) cdtGH() Estimate {
	r, s := float64(p.RBlocks), float64(p.SBlocks)
	d := float64(p.DBlocks - p.RBlocks)
	iters := math.Ceil(s / d)
	c := s / iters
	extra := p.ghSkewExtra(p.ghBuckets())
	stepI := p.tT(r) + p.tD(r)
	return Estimate{
		Method:            "CDT-GH",
		StepISeconds:      stepI,
		Seconds:           stepI + p.tT(c) + (iters-1)*math.Max(p.tT(c), p.tD(2*c+r)) + p.tD(c+r) + p.tD(extra),
		DiskSpaceBlocks:   p.DBlocks,
		DiskTrafficBlocks: p.RBlocks + int64(iters)*p.RBlocks + 2*p.SBlocks + int64(extra),
	}
}

// cttGH: Step I scans R ceil(|R|/D) times on its own tape, appending a
// disk-load of finished buckets per scan (t_T of the appended blocks,
// |R| in total across scans); disk assembly traffic overlaps the tape.
// Step II iterates d = D chunks of S; the joiner re-reads hashed R
// from tape each iteration while the hasher fills the next chunk:
//
//	StepI = ceil(R/D) t_T(R) + t_T(R)
//	T     = StepI + t_T(c) + t_D(c)
//	      + (iters-1) max(t_T(R) + t_D(c), t_T(c) + t_D(2c))
//	      + t_T(R) + t_D(c)
//
// with c = S/ceil(S/D): the first chunk's hash fills the pipeline,
// each steady-state iteration is bounded by the slower of the joiner
// (re-reading hashed R from tape, scanning c from disk) and the hasher
// (reading c from the S tape, c through disk both ways), and the last
// chunk's join drains the pipeline.
func (p Params) cttGH() Estimate {
	r, s, dd := float64(p.RBlocks), float64(p.SBlocks), float64(p.DBlocks)
	scans := math.Ceil(r / dd)
	stepI := scans*p.tT(r) + p.tT(r)
	iters := math.Ceil(s / dd)
	c := s / iters
	extra := p.ghSkewExtra(p.ghBuckets())
	joiner := p.tT(r) + p.tD(c)
	hasher := p.tT(c) + p.tD(2*c)
	return Estimate{
		Method:            "CTT-GH",
		StepISeconds:      stepI,
		Seconds:           stepI + p.tT(c) + p.tD(c) + (iters-1)*math.Max(joiner, hasher) + joiner + p.tD(extra),
		DiskSpaceBlocks:   p.DBlocks,
		DiskTrafficBlocks: 2*p.RBlocks + 2*p.SBlocks + int64(extra),
	}
}

// ttGH: hash R onto the S tape (ceil(R/D) scans of R, sequential tape
// read + disk in/out + tape write per disk-load), then hash S onto the
// R tape the same way, then read both hashed relations once:
//
//	Ia = ceil(R/D) t_T(R) + 2 t_D(R) + t_T(R)
//	Ib = ceil(S/D) t_T(S) + 2 t_D(S) + t_T(S)
//	T  = Ia + Ib + t_T(R) + t_T(S)
func (p Params) ttGH() Estimate {
	r, s, dd := float64(p.RBlocks), float64(p.SBlocks), float64(p.DBlocks)
	ia := math.Ceil(r/dd)*p.tT(r) + 2*p.tD(r) + p.tT(r)
	ib := math.Ceil(s/dd)*p.tT(s) + 2*p.tD(s) + p.tT(s)
	stepI := ia + ib
	// TT-GH's S partitions live on tape, so its multi-load re-scans
	// pay the tape rate, not the disk rate.
	return Estimate{
		Method:            "TT-GH",
		StepISeconds:      stepI,
		Seconds:           stepI + p.tT(r) + p.tT(s) + p.tT(p.ghSkewExtra(p.ghBuckets())),
		DiskSpaceBlocks:   p.DBlocks,
		DiskTrafficBlocks: 2*p.RBlocks + 2*p.SBlocks,
	}
}
