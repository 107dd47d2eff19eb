package tapejoin

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// httpGet fetches a live-telemetry endpoint and returns status + body.
func httpGet(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestObsServerScrapeDuringJoin runs a file-backend join with the obs
// server attached while goroutines hammer every endpoint, then checks
// the run's output against an unobserved reference: scraping must
// never perturb the result. Run under -race this is also the proof
// that scrape-during-run is data-race free end to end.
func TestObsServerScrapeDuringJoin(t *testing.T) {
	ref := func() *Result {
		sys, err := NewSystem(Config{
			Backend: "file", BackendDir: t.TempDir(),
			MemoryMB: 1, DiskMB: 4, Profile: IdealTape,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, s := makeRelations(t, sys)
		res, err := sys.Join(CDTGH, r, s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	sys, err := NewSystem(Config{
		Backend: "file", BackendDir: t.TempDir(),
		MemoryMB: 1, DiskMB: 4, Profile: IdealTape,
		FilePace: 200, // stretch the wall time so scrapes land mid-run
		ObsAddr:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addr := sys.ObsAddr()
	if addr == "" {
		t.Fatal("ObsAddr empty after NewSystem with ObsAddr config")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/health", "/flight"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + addr + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}

	r, s := makeRelations(t, sys)
	res, err := sys.Join(CDTGH, r, s)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Matches != ref.Stats.Matches {
		t.Errorf("matches = %d, reference %d", res.Stats.Matches, ref.Stats.Matches)
	}
	if res.Stats.OutputHash != ref.Stats.OutputHash {
		t.Errorf("scraping perturbed the output hash: %#x vs %#x",
			res.Stats.OutputHash, ref.Stats.OutputHash)
	}
	// No virtual-response comparison: the file backend charges measured
	// wall time into the virtual clock, so Response legitimately varies
	// run to run there. Determinism of Response under instrumentation
	// is asserted on the sim backend by TestObserveLeavesResultUnperturbed.

	// The final scrape is valid Prometheus text and carries the device
	// engine's health gauges and the server's own scrape counter.
	code, body := httpGet(t, addr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := obs.CheckPromText(body); err != nil {
		t.Fatalf("/metrics is not valid prom text: %v\n%s", err, body)
	}
	for _, want := range []string{"iodev_health{", "obs_scrapes_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = httpGet(t, addr, "/health")
	if code != http.StatusOK {
		t.Fatalf("/health status %d after a clean run: %s", code, body)
	}
	var health struct {
		Status  string `json:"status"`
		Devices []struct {
			Device string `json:"device"`
			State  string `json:"state"`
		} `json:"devices"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("/health JSON: %v\n%s", err, body)
	}
	if health.Status != "ok" || len(health.Devices) == 0 {
		t.Errorf("clean run health = %+v", health)
	}

	// The flight recorder saw the run: span boundaries at minimum.
	_, body = httpGet(t, addr, "/flight")
	if !strings.Contains(string(body), `"kind":"span-open"`) {
		t.Errorf("/flight has no span events:\n%.400s", body)
	}
}

// TestObsServerReportsTrippedDevice drives a device into Failed —
// a disk op stalls past its deadline and the breaker is configured to
// trip on the first miss (a retry would re-run the op clean, since the
// armed OS fault is consumed by the first syscall, and the success
// would heal the breaker) — and asserts the telemetry tells the story
// after the fail-fast: /health goes 503 with the tripped device,
// /flight holds the timeout and health-transition events leading up
// to the trip.
func TestObsServerReportsTrippedDevice(t *testing.T) {
	sys, err := NewSystem(Config{
		Backend: "file", BackendDir: t.TempDir(),
		MemoryMB: 1, DiskMB: 4, Profile: IdealTape,
		Faults:          "oswait=disk:60ms:200",
		FileOpTimeout:   5 * time.Millisecond,
		fileTripAfter:   1,
		DisableRecovery: true,
		ObsAddr:         "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	r, s := makeRelations(t, sys)
	_, err = sys.Join(DTGH, r, s)
	if err == nil {
		t.Fatal("join should fail fast with every disk op stalling")
	}
	if !errors.Is(err, fault.ErrTimeout) {
		t.Fatalf("want ErrTimeout in the chain, got %v", err)
	}

	code, body := httpGet(t, sys.ObsAddr(), "/health")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/health status %d, want 503: %s", code, body)
	}
	var health struct {
		Status  string `json:"status"`
		Devices []struct {
			Device   string `json:"device"`
			State    string `json:"state"`
			Timeouts int64  `json:"timeouts"`
		} `json:"devices"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("/health JSON: %v\n%s", err, body)
	}
	if health.Status != "failed" {
		t.Fatalf("health status %q, want failed: %+v", health.Status, health)
	}
	tripped := false
	for _, d := range health.Devices {
		if d.State == "failed" && d.Timeouts > 0 {
			tripped = true
		}
	}
	if !tripped {
		t.Fatalf("no failed device with timeouts in %+v", health.Devices)
	}

	// The black box holds the trip's history: the deadline miss and the
	// health transition that followed it.
	_, body = httpGet(t, sys.ObsAddr(), "/flight")
	kinds := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	var failedSeen bool
	for sc.Scan() {
		var ev obs.FlightEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad /flight line %q: %v", sc.Text(), err)
		}
		kinds[ev.Kind] = true
		if ev.Kind == "health" && ev.Detail == "failed" {
			failedSeen = true
		}
	}
	for _, want := range []string{"timeout", "health"} {
		if !kinds[want] {
			t.Errorf("/flight missing %q events; saw %v\n%.400s", want, kinds, body)
		}
	}
	if !failedSeen {
		t.Errorf("/flight has no health transition to failed:\n%.400s", body)
	}
}
