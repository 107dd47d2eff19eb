package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Parse builds a Schedule from a compact comma-separated spec, the
// grammar behind the -faults flag of both CLIs. One grammar covers
// both fault levels: *device*-level rules fire inside the device model
// on every backend, while *OS*-level rules fire at the syscall layer
// and therefore only on -backend=file.
//
//	directive                    level   fires on              effect
//	─────────────────────────    ──────  ────────────────────  ─────────────────────────────
//	transient=DEV:ADDR[:COUNT]   device  reads of ADDR         retryable error
//	hard=DEV:ADDR                device  reads of ADDR         unrecoverable media error
//	corrupt=DEV:ADDR[:COUNT]     device  reads of ADDR         bit-flip the delivered copy
//	stall=DEV:DUR[:COUNT]        device  reads                 virtual-time hiccup of DUR
//	diskfail=N@TIME              device  all ops on disk N     device permanently lost
//	drivefail=DEV@TIME           device  all ops on drive DEV  tape transport permanently lost
//	oserr=DEV:ADDR[:COUNT]       OS      file ops at ADDR      EIO-style retryable error
//	torn=DEV:ADDR[:COUNT]        OS      file writes at ADDR   short (torn) write, silent
//	oswait=DEV:DUR[:COUNT]       OS      file ops              wall-clock stall of DUR
//	flip=DEV:ADDR[:COUNT]        OS      file writes at ADDR   bit-flip the stored bytes
//	random=SEED[:COUNT]          device  —                     COUNT seeded recoverable faults
//
// DEV is R or S (the tape drives), disk (the array-wide transfer
// path), or diskN (one drive of the array). DUR and TIME use Go
// duration syntax ("90s", "1h10m"); COUNT defaults to 1. Schedule's
// String method renders the inverse mapping, so a parsed (or randomly
// generated) schedule round-trips through its log line. Example:
//
//	-faults "transient=S:1000:2,oswait=disk:200ms:3,diskfail=1@30m"
func Parse(spec string) (*Schedule, error) {
	s := &Schedule{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fault: directive %q is not key=value", part)
		}
		var err error
		if key == "random" {
			err = parseRandom(s, val)
		} else if k := kindOf(key); k != nil {
			var r *rule
			if r, err = parseRule(k, val); err == nil {
				s.rules = append(s.rules, r)
			}
		} else {
			err = fmt.Errorf("fault: unknown directive %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: %q: %w", part, err)
		}
	}
	return s, nil
}

// device canonicalizes a spec device name.
func device(name string) (string, error) {
	switch {
	case name == "R" || name == "S":
		return "tape:" + name, nil
	case name == "disk" || strings.HasPrefix(name, "disk"):
		return name, nil
	case strings.HasPrefix(name, "tape:"):
		return name, nil
	}
	return "", fmt.Errorf("unknown device %q (want R, S, disk or diskN)", name)
}

// parseRule parses the value of one directive of kind k.
func parseRule(k *kind, val string) (*rule, error) {
	r := &rule{k: k, count: 1}
	if k.unbounded {
		r.count = -1
	}
	if k.form == diskForm || k.form == driveForm {
		return r, parseLoss(r, val)
	}
	want := "DEV:ADDR[:COUNT]"
	switch {
	case k.form == durForm:
		want = "DEV:DUR[:COUNT]"
	case k.unbounded:
		want = "DEV:ADDR"
	}
	fields := strings.Split(val, ":")
	if len(fields) < 2 || len(fields) > 3 || k.unbounded && len(fields) != 2 {
		return nil, fmt.Errorf("want %s", want)
	}
	var err error
	if r.device, err = device(fields[0]); err != nil {
		return nil, err
	}
	if k.form == durForm {
		if r.dur, err = time.ParseDuration(fields[1]); err != nil || r.dur <= 0 {
			return nil, fmt.Errorf("bad duration %q", fields[1])
		}
	} else if r.addr, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return nil, fmt.Errorf("bad address %q", fields[1])
	}
	if len(fields) == 3 {
		if r.count, err = strconv.Atoi(fields[2]); err != nil || r.count <= 0 {
			return nil, fmt.Errorf("bad count %q", fields[2])
		}
	}
	return r, nil
}

// parseLoss parses N@TIME (diskfail) or DEV@TIME (drivefail) into r.
func parseLoss(r *rule, val string) error {
	devStr, atStr, ok := strings.Cut(val, "@")
	switch {
	case !ok && r.k.form == diskForm:
		return fmt.Errorf("want N@TIME")
	case !ok:
		return fmt.Errorf("want DEV@TIME")
	case r.k.form == diskForm:
		n, err := strconv.Atoi(devStr)
		if err != nil || n < 0 {
			return fmt.Errorf("bad disk number %q", devStr)
		}
		r.device = "disk" + strconv.Itoa(n)
	default:
		dev, err := device(devStr)
		if err != nil {
			return err
		}
		r.device = dev
	}
	at, err := time.ParseDuration(atStr)
	if err != nil || at < 0 {
		return fmt.Errorf("bad time %q", atStr)
	}
	r.at = sim.Time(at)
	return nil
}

func parseRandom(s *Schedule, val string) error {
	seedStr, countStr, hasCount := strings.Cut(val, ":")
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return fmt.Errorf("bad seed %q", seedStr)
	}
	count := 3
	if hasCount {
		if count, err = strconv.Atoi(countStr); err != nil || count <= 0 {
			return fmt.Errorf("bad count %q", countStr)
		}
	}
	appendRandom(s, seed, count, 4096)
	return nil
}

// Random builds a deterministic schedule of count recoverable faults
// (transients, delivered-copy corruptions and short stalls) on tape:R,
// tape:S and disk, at addresses below maxAddr, from seed. The same seed
// always yields the same schedule.
func Random(seed int64, count int, maxAddr int64) *Schedule {
	s := &Schedule{}
	appendRandom(s, seed, count, maxAddr)
	return s
}

func appendRandom(s *Schedule, seed int64, count int, maxAddr int64) {
	const maxRetries = 3
	devices := []string{"tape:R", "tape:S", "disk"}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		dev := devices[rng.Intn(len(devices))]
		addr := rng.Int63n(maxAddr)
		r := &rule{device: dev}
		switch rng.Intn(3) {
		case 0:
			r.k, r.addr, r.count = kindOf("transient"), addr, 1+rng.Intn(maxRetries)
		case 1:
			r.k, r.addr, r.count = kindOf("corrupt"), addr, 1+rng.Intn(maxRetries)
		default:
			r.k, r.dur, r.count = kindOf("stall"), time.Duration(1+rng.Intn(10))*time.Second, 1
		}
		s.rules = append(s.rules, r)
	}
}
