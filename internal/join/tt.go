package join

import (
	"fmt"

	"repro/internal/hashutil"
	"repro/internal/sim"
)

// planTT plans TT-GH's buckets: the same B partitions both relations,
// so a bucket of either side must fit the disk assembly area. S is the
// larger side, so it sets the bound: bucket_R <= R/S * assemblable(D).
func planTT(r, s int64, res Resources) (hashutil.Plan, error) {
	bound := assemblableBucket(res.DiskBlocks)
	// Scale the R-side bucket bound so the corresponding S bucket
	// (about |S|/|R| times larger) also fits.
	rBound := bound * r / s
	if rBound < 1 {
		rBound = 1
	}
	plan, err := hashutil.PlanBucketsBounded(r, res.MemoryBlocks, rBound)
	if err != nil {
		return plan, fmt.Errorf("%w: %v", ErrNeedMemory, err)
	}
	return plan, nil
}

// TTGH is Tape–Tape Grace Hash Join (Section 5.2.2): fully sequential.
// Step I hashes R onto the S tape's scratch space (the other tape is
// the target so no seeks alternate between source and destination on
// one cartridge), then hashes S onto the R tape the same way. Step II
// reads each R bucket into memory and scans the corresponding S
// bucket. Trades the largest tape space requirement (T_R = |S|,
// T_S = |R|) for the smallest disk requirement.
type TTGH struct{}

// Name implements Method.
func (TTGH) Name() string { return "Tape-Tape Grace Hash Join" }

// Symbol implements Method.
func (TTGH) Symbol() string { return "TT-GH" }

// footprint implements Method: M >= sqrt(|R|); disk must assemble at
// least one bucket of either relation (Table 2 says "any" disk space
// under the idealization that buckets can be fragmented; we assemble
// buckets contiguously, which needs a bucket's worth); each tape needs
// scratch for the other relation's hashed copy, plus a partial block
// per bucket.
func (TTGH) footprint(r, s int64, res Resources) (Need, error) {
	plan, err := planTT(r, s, res)
	if err != nil {
		return Need{}, err
	}
	b := int64(plan.B)
	return Need{M: b + 1, D: 2 * estBucketBlocks(s, plan.B), dWhy: "two S buckets", TR: s + b, TS: r + b}, nil
}

func (TTGH) run(e *env, p *sim.Proc) error {
	plan, err := planTT(e.spec.R.Region.N, e.spec.S.Region.N, e.res)
	if err != nil {
		return err
	}

	// Step I, part 1: hash R onto the S tape, sketching for skew when
	// enabled.
	var skp *hashutil.SkewPlan
	rRegions, err := hashRelationToTape(e, p, e.driveR, e.spec.R.Region,
		e.spec.R.TuplesPerBlock, e.spec.R.Tag, plan, e.driveS, false, e.filterR(), &e.stats.RScans, &skp, true)
	if err != nil {
		return err
	}
	// Step I, part 2: hash S onto the R tape using the same buckets —
	// and the same skew refinement, so partition i of each side holds
	// the same keys.
	sScans := 0
	sRegions, err := hashRelationToTape(e, p, e.driveS, e.spec.S.Region,
		e.spec.S.TuplesPerBlock, e.spec.S.Tag, plan, e.driveR, false, e.filterS(), &sScans, &skp, false)
	if err != nil {
		return err
	}
	e.markStepI(p)

	scanBuf := scanBufFor(plan, e.res.MemoryBlocks)
	maxLoad := e.res.MemoryBlocks - scanBuf
	nparts := plan.B
	if skp != nil {
		nparts = skp.NParts
	}

	// Step II: join partition pairs; R partitions now live on the S
	// tape and S partitions on the R tape, both in spool order. Each
	// pair is one restartable unit with staged output — both inputs
	// are on tape, so any retry simply re-reads them.
	for b := 0; b < nparts; b++ {
		b := b
		err := e.runUnit(p, fmt.Sprintf("bucket %d", b), func(up *sim.Proc) error {
			return e.staged(up, func() error {
				r := tapeBucket{drive: e.driveS, region: rRegions[b]}
				s := tapeBucket{drive: e.driveR, region: sRegions[b]}
				return joinBucketPair(e, up, r, s, maxLoad, scanBuf)
			})
		})
		if err != nil {
			return err
		}
		e.stats.Iterations++
	}
	e.stats.RScans++ // Step II reads the hashed R once in full
	return nil
}
