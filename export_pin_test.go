package tapejoin

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"testing"
)

// exportPins are the sha256 digests of every observability export of
// two faulted sim runs. Any change to the device event stream, the
// span tree, the metric registry or an exporter's encoding moves a
// digest; a refactor that claims to preserve behaviour must keep them.
// exchanges is the run's tape-exchange event count, which the metrics
// text's tape_exchanges_total series must sum to.
var exportPins = []struct {
	name      string
	method    Method
	faults    string
	exchanges int
	want      map[string]string
}{
	{
		name: "CDT-GH transient", method: CDTGH, faults: "transient=R:50:2",
		want: map[string]string{
			"chrome":   "d292cf9ca499b7587506091c92130cdc1b5ea1f0e75b16b9b4b6cfda8248eafb",
			"jsonl":    "7087141bb8b4d33209c8bfb4196a1c22fcf0652ffa9bf7a151455eba5efe0a83",
			"metrics":  "14c9a4a58650cc81d62bdce2f91dd8b288cc5f55b7aaca72670ab0c4e0bb5720",
			"timeline": "35825bcb807b3dc67cf29823fa0ecb9874d78c9f7b1ee0c4beefd8b85cdd5289",
			"summary":  "823024ebd6e9f1d792167e5d6e5c0b126153b0170229de07789eb92cdffd5dea",
		},
	},
	{
		// The drive loss degrades the run: device "-" gains a row, and
		// the surviving drive's one switch of the shared transport is an
		// exchange.
		name: "CTT-GH drive loss", method: CTTGH, faults: "corrupt=disk:3,drivefail=S@20s",
		exchanges: 1,
		want: map[string]string{
			"chrome":   "02edeb696c3733ded3b69ca9d95f30b3add1481254fab9341f82ebdf6014a76c",
			"jsonl":    "f7f691ae5a6799fdacc17b3e21717fb688b67810f8f7dadeda4bb013b7da6af3",
			"metrics":  "e67d30f47e317c702f8e7477de4d4d201dbb97e87b245c73d847381ef7273a13",
			"timeline": "1cbaaf3d939dcb8446e0385148d65d4abfdd936367f304446c321d7432fd51b8",
			"summary":  "54b181fbe362632b2b8fe339f97e3ed351e496d65d594c2f0734e17e4df67e70",
		},
	},
}

// pinnedRun runs method over a 4 MB R and a 16 MB S with 2 MB of memory
// and 8 MB of disk, the geometry of
// `tapejoin -r 4 -s 16 -mem 2 -disk 8 -keyspace 4000`.
func pinnedRun(t *testing.T, m Method, faults string) *Result {
	t.Helper()
	sys, err := NewSystem(Config{
		MemoryMB: 2, DiskMB: 8, NumDisks: 2, DiskTapeSpeedRatio: 2,
		Faults: faults, Observe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	tR, err := sys.NewTape("tape-R", 22)
	if err != nil {
		t.Fatal(err)
	}
	tS, err := sys.NewTape("tape-S", 22)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.CreateRelation(tR, RelationConfig{Name: "R", SizeMB: 4, KeySpace: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sys.CreateRelation(tS, RelationConfig{Name: "S", SizeMB: 16, KeySpace: 4000, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Join(m, r, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestExportDigestsPinned pins the Chrome trace, JSONL stream, metrics
// text, timeline and device summary of two faulted runs byte for byte.
func TestExportDigestsPinned(t *testing.T) {
	for _, tc := range exportPins {
		t.Run(tc.name, func(t *testing.T) {
			res := pinnedRun(t, tc.method, tc.faults)
			if res.Report == nil {
				t.Fatal("Observe set but Report is nil")
			}
			chrome, err := res.Report.ChromeTrace()
			if err != nil {
				t.Fatal(err)
			}
			var jsonl bytes.Buffer
			if err := res.Report.WriteJSONL(&jsonl); err != nil {
				t.Fatal(err)
			}
			got := map[string]string{
				"chrome":   digest(chrome),
				"jsonl":    digest(jsonl.Bytes()),
				"metrics":  digest([]byte(res.Report.MetricsText())),
				"timeline": digest([]byte(res.Report.Timeline())),
				"summary":  digest([]byte(res.Report.DeviceSummary())),
			}
			for k, want := range tc.want {
				if got[k] != want {
					t.Errorf("%s digest = %s, want %s", k, got[k], want)
				}
			}
			if n := strings.Count(jsonl.String(), `"kind":"tape-exchange"`); n != tc.exchanges {
				t.Errorf("%d tape-exchange events, want %d", n, tc.exchanges)
			}
			if n := exchangesTotal(t, res.Report.MetricsText()); n != tc.exchanges {
				t.Errorf("tape_exchanges_total sums to %d, want %d", n, tc.exchanges)
			}
		})
	}
}

// exchangesTotal sums the tape_exchanges_total series of a metrics
// exposition.
func exchangesTotal(t *testing.T, text string) int {
	t.Helper()
	sum := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "tape_exchanges_total{") {
			continue
		}
		v, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		sum += v
	}
	return sum
}
