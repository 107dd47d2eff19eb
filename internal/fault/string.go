package fault

import (
	"strconv"
	"strings"
	"time"
)

// String renders the schedule back into the Parse grammar, so a
// schedule logged at startup can be replayed verbatim with -faults.
// The output is canonical: counts of 1 are omitted, device names use
// their short spec form (R, S, disk, diskN), and random= directives
// appear expanded into the concrete rules they generated — replaying
// the string reproduces the schedule without needing the seed.
//
// Rules whose firings are already spent are omitted, so String called
// mid-run describes the *remaining* schedule; call it before running
// to capture the full one.
func (s *Schedule) String() string {
	if s == nil {
		return ""
	}
	var parts []string
	for _, r := range s.rules {
		if r.count != 0 {
			parts = append(parts, r.String())
		}
	}
	return strings.Join(parts, ",")
}

// String renders one rule as its directive.
func (r *rule) String() string {
	dev := specDevice(r.device)
	var arg string
	switch r.k.form {
	case diskForm:
		return r.k.key + "=" + strings.TrimPrefix(r.device, "disk") + "@" + time.Duration(r.at).String()
	case driveForm:
		return r.k.key + "=" + dev + "@" + time.Duration(r.at).String()
	case durForm:
		arg = dev + ":" + r.dur.String()
	default:
		arg = dev + ":" + strconv.FormatInt(r.addr, 10)
	}
	if r.count > 1 {
		arg += ":" + strconv.Itoa(r.count)
	}
	return r.k.key + "=" + arg
}

// specDevice maps a canonical device name back to its short spec form.
func specDevice(dev string) string {
	if short, ok := strings.CutPrefix(dev, "tape:"); ok && (short == "R" || short == "S") {
		return short
	}
	return dev
}
