package server

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"factorwindows/internal/reorder"
	"factorwindows/internal/stream"
	"factorwindows/internal/wal"
	"factorwindows/internal/workload"
)

// benchWALDir returns a tmpfs-backed WAL directory when the host has
// one, falling back to the test tempdir. The guarded numbers must pin
// the WAL software path (frame encode, staging, group commit, the
// write syscall) — not the block device: CI and developer disks differ
// by orders of magnitude and virtualized disks throttle mid-run, which
// would turn the regression guard into a disk lottery. Device
// throughput is an operations concern (see the README runbook), not a
// code property this benchmark can hold steady.
func benchWALDir(b *testing.B) string {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		dir, err := os.MkdirTemp("/dev/shm", "fw-wal-bench-*")
		if err == nil {
			b.Cleanup(func() { os.RemoveAll(dir) })
			return dir
		}
	}
	return b.TempDir()
}

// BenchmarkDurablePipeline measures the cost of durability on the
// ordered ingest path: the same 64k-event workload as the wire
// benchmarks pushed through s.Ingest in 8192-event batches, with the
// WAL disabled (none), appending without waiting for fsync
// (wal-interval, the recommended production setting — ticker-driven
// group fsync off the ack path), and fsyncing every group commit
// (wal-every). The acceptance bar is wal-interval within 10% ns/op of
// none; BENCH_wal.json records both so benchguard holds the line.
func BenchmarkDurablePipeline(b *testing.B) {
	const nevents = 1 << 16
	events := wireBenchEvents(nevents)
	configs := []struct {
		name string
		cfg  func(b *testing.B) Config
	}{
		{"none", func(b *testing.B) Config {
			return Config{Shards: 2, Policy: reorder.Adjust}
		}},
		{"wal-interval", func(b *testing.B) Config {
			return Config{
				Shards: 2, Policy: reorder.Adjust,
				Durable: true, WALDir: benchWALDir(b),
				Fsync: wal.FsyncInterval, FsyncInterval: 50 * time.Millisecond,
			}
		}},
		{"wal-every", func(b *testing.B) Config {
			return Config{
				Shards: 2, Policy: reorder.Adjust,
				Durable: true, WALDir: benchWALDir(b),
				Fsync: wal.FsyncEvery,
			}
		}},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			cfg := c.cfg(b)
			var s *Server
			var err error
			if cfg.Durable {
				s, err = Open(cfg)
			} else {
				s, err = New(cfg), nil
			}
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Register("q", "SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 20))"); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(nevents * 24))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for off := 0; off < nevents; off += 8192 {
					if _, err := s.Ingest(events[off : off+8192]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(nevents)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		})
	}
}

// BenchmarkDurableSnapshotCapture times one durable snapshot capture —
// the part that runs under s.mu on the ingest path — in the engine_shared
// traffic shape: MIN over the paper's Section V-B draw of 10 tumbling
// windows (workload.RandomGen seed 29) split over 2 queries, 64 keys and
// 64 events per tick on 2 shards, with both result rings full at 16,384
// rows. It reports the snapshot payload and the GET /checkpoint record
// of the same state, in bytes. Measuring only: no BENCH_*.json entry
// guards it.
func BenchmarkDurableSnapshotCapture(b *testing.B) {
	set, err := workload.RandomGen(workload.PaperDefaults(10, true), rand.New(rand.NewSource(29)))
	if err != nil {
		b.Fatal(err)
	}
	var parts [2][]string
	for i, w := range set.Sorted() {
		parts[i%2] = append(parts[i%2], fmt.Sprintf("TumblingWindow(tick, %d)", w.Range))
	}
	const ringRows = 1 << 14
	s, err := Open(Config{
		Shards: 2, ResultBuffer: ringRows,
		Durable: true, WALDir: benchWALDir(b), Fsync: wal.FsyncOff,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown()
	for i, p := range parts {
		sql := "SELECT DeviceID, MIN(T) FROM In GROUP BY DeviceID, Windows(" + strings.Join(p, ", ") + ")"
		if _, err := s.Register(fmt.Sprintf("q%d", i+1), sql); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	batch := make([]stream.Event, 8192)
	for seq := 0; ; {
		full := true
		for _, id := range []string{"q1", "q2"} {
			rg, _ := s.ringOf(id)
			if delivered, _ := rg.counters(); delivered < 2*ringRows {
				full = false
			}
		}
		if full {
			break
		}
		for i := range batch {
			batch[i] = stream.Event{Time: int64(seq / 64), Key: uint64(seq % 64), Value: rng.Float64() * 100}
			seq++
		}
		if _, err := s.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
	cp, err := s.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	var payload int
	b.ReportAllocs()
	for b.Loop() {
		s.mu.Lock()
		_, data, err := s.captureSnapshotLocked()
		s.mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
		payload = len(data)
	}
	b.ReportMetric(float64(payload), "payload_B")
	b.ReportMetric(float64(len(cp)), "checkpoint_B")
}
