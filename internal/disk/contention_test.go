package disk

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// contendedRun drives three procs on one 3-drive array from the same
// instant: two issue striped requests over every drive, the third
// single-drive fast-path requests on drive 1. It returns each drive
// event in recording order, then every drive's busy time and
// acquisition count.
func contendedRun(t *testing.T) string {
	t.Helper()
	k := sim.NewKernel()
	cfg := Config{
		NumDisks:        3,
		AggregateRate:   3 * block64PerSecond,
		RequestOverhead: 10 * time.Millisecond,
		BlocksPerDisk:   100,
	}
	a, err := NewArray(k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracker()
	a.SetTracker(tr)
	type job struct {
		name      string
		placement []int
		sizes     []int64 // append sizes; each is read back at offset 0 after
	}
	jobs := []job{
		{"stripeA", nil, []int64{7, 4}},
		{"stripeB", nil, []int64{5, 2, 3}},
		{"single", []int{1}, []int64{2, 1, 2}},
	}
	for _, j := range jobs {
		j := j
		k.Spawn(j.name, func(p *sim.Proc) {
			f, err := a.Create(j.name, j.placement)
			if err != nil {
				t.Error(err)
				return
			}
			for _, n := range j.sizes {
				if err := f.Append(p, mkBlocks(int(n))); err != nil {
					t.Error(err)
					return
				}
				if _, err := f.ReadAt(p, 0, n); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range tr.Events() {
		fmt.Fprintf(&b, "%s %s %v-%v %d\n", e.Device, e.Kind, e.Start, e.End, e.Blocks)
	}
	for _, d := range a.disks {
		fmt.Fprintf(&b, "%s busy=%v acq=%d\n", d.res.Name(), d.res.BusyTime, d.res.Acquisitions)
	}
	fmt.Fprintf(&b, "end=%v requests=%d\n", k.Now(), a.Stats.Requests)
	return b.String()
}

// block64PerSecond is one paper block per second.
const block64PerSecond = 64 * 1024

// TestContendedStripesKeepDriveOrder pins the per-drive schedule of
// striped and fast-path requests contending for the same drives at the
// same instants: which request gets each drive when, and for how long.
// The expected text was recorded when every striped share still ran on
// its own goroutine process, so it holds the helper tasks to exactly
// that FIFO order.
func TestContendedStripesKeepDriveOrder(t *testing.T) {
	got := contendedRun(t)
	if got != contendedWant {
		t.Fatalf("drive schedule changed:\n got:\n%s\nwant:\n%s", got, contendedWant)
	}
}

const contendedWant = `disk1 disk-write 0s-2.01s 2
disk2 disk-write 0s-2.01s 2
disk0 disk-write 0s-3.01s 3
disk2 disk-write 2.01s-3.02s 1
disk1 disk-write 2.01s-4.02s 2
disk0 disk-write 3.01s-5.02s 2
disk1 disk-write 4.02s-6.03s 2
disk2 disk-read 4.02s-6.03s 2
disk2 disk-read 6.03s-7.04s 1
disk0 disk-read 5.02s-8.03s 3
disk1 disk-read 6.03s-8.04s 2
disk0 disk-read 8.03s-10.04s 2
disk1 disk-read 8.04s-10.05s 2
disk0 disk-write 10.05s-11.06s 1
disk2 disk-write 10.05s-11.06s 1
disk1 disk-read 10.05s-12.06s 2
disk1 disk-write 12.06s-13.07s 1
disk0 disk-write 12.06s-13.07s 1
disk2 disk-write 12.06s-13.07s 1
disk0 disk-read 13.07s-14.08s 1
disk1 disk-write 13.07s-15.08s 2
disk1 disk-read 15.08s-16.09s 1
disk2 disk-read 15.08s-16.09s 1
disk0 disk-read 15.08s-17.09s 2
disk1 disk-read 16.09s-17.1s 1
disk1 disk-read 17.1s-18.11s 1
disk0 disk-write 17.1s-18.11s 1
disk2 disk-write 17.1s-18.11s 1
disk1 disk-write 18.11s-20.12s 2
disk1 disk-write 20.12s-21.13s 1
disk0 disk-read 21.13s-22.14s 1
disk2 disk-read 21.13s-22.14s 1
disk1 disk-read 21.13s-23.14s 2
disk1 disk-read 23.14s-24.15s 1
disk0 busy=17.1s acq=10
disk1 busy=24.15s acq=15
disk2 busy=11.09s acq=9
end=24.15s requests=34
`

// BenchmarkDiskStripedRead: one proc reading a 2-drive striped file in
// 8-block requests, so every op is one striped request of two shares.
func BenchmarkDiskStripedRead(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	a, err := NewArray(k, SCSI2Pair(64), nil)
	if err != nil {
		b.Fatal(err)
	}
	k.Spawn("reader", func(p *sim.Proc) {
		f, err := a.Create("f", nil)
		if err != nil {
			b.Error(err)
			return
		}
		if err := f.Append(p, mkBlocks(64)); err != nil {
			b.Error(err)
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.ReadAt(p, int64(i%8)*8, 8); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
