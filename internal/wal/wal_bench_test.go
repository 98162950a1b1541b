package wal

import (
	"fmt"
	"os"
	"testing"
	"time"

	"factorwindows/internal/stream"
	"factorwindows/internal/wire"
)

// benchDir prefers a tmpfs-backed log directory so the guarded numbers
// pin the WAL software path rather than the block device: virtualized
// CI disks throttle mid-run, which would make the committed baseline a
// disk lottery instead of a regression guard. Device throughput is an
// operations measurement (dd, fio), not a property this code can hold
// steady. The every policy still pays a real fsync on tmpfs-less hosts;
// on tmpfs it degenerates to the syscall floor, which is exactly the
// software cost the guard is after.
func benchDir(b *testing.B) string {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		dir, err := os.MkdirTemp("/dev/shm", "fw-wal-bench-*")
		if err == nil {
			b.Cleanup(func() { os.RemoveAll(dir) })
			return dir
		}
	}
	return b.TempDir()
}

// benchEvents builds one append batch: in-order ticks over a small key
// set, the same shape the server's ingest path stages per WAL record.
func benchEvents(n int) []stream.Event {
	events := make([]stream.Event, n)
	for i := range events {
		events[i] = stream.Event{
			Time: int64(i) / 4, Key: uint64(i % 8), Value: float64(i%997) * 0.25,
		}
	}
	return events
}

// BenchmarkWALAppend measures one staged append plus commit wait per op
// under each fsync policy: off (buffered write only), interval (write
// now, fsync on the ticker — the ingest hot path's configuration), and
// every (one group commit per op; sequential appends cannot amortize
// the fsync, so this is the per-batch fsync latency floor). BENCH_wal
// .json guards off and interval; every is reported informationally —
// fsync latency is a device property, not a code property.
func BenchmarkWALAppend(b *testing.B) {
	const batch = 512
	events := benchEvents(batch)
	for _, pol := range []FsyncPolicy{FsyncOff, FsyncInterval, FsyncEvery} {
		b.Run(pol.String(), func(b *testing.B) {
			l, err := Open(Options{
				Dir:           benchDir(b),
				Fsync:         pol,
				FsyncInterval: 50 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close(false)
			b.SetBytes(int64(len(wire.AppendEventFrame(nil, events)))) // the record's size
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := l.Append(events)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		})
	}
}

// BenchmarkWALGroupCommit drives FsyncEvery from parallel writers, the
// scenario group commit exists for: concurrent appends staged during
// one fsync ride the next, so the fsync count stays far below the
// append count and per-append latency amortizes. Reported fsyncs/op is
// the amortization factor.
func BenchmarkWALGroupCommit(b *testing.B) {
	const batch = 64
	events := benchEvents(batch)
	l, err := Open(Options{Dir: benchDir(b), Fsync: FsyncEvery})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close(false)
	b.SetBytes(int64(len(wire.AppendEventFrame(nil, events)))) // the record's size
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c, err := l.Append(events)
			if err != nil {
				b.Fatal(err)
			}
			if durable, err := c.Wait(); err != nil || !durable {
				b.Fatal(fmt.Errorf("durable=%v err=%v", durable, err))
			}
		}
	})
	st := l.Stats()
	b.ReportMetric(float64(st.Fsyncs)/float64(st.Appended), "fsyncs/append")
}
