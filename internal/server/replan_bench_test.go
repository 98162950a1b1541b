package server

import (
	"fmt"
	"testing"

	"factorwindows/internal/stream"
)

// BenchmarkReplan measures one re-plan with open state: a SUM query over
// T8 and T16 on 4 shards holds open instances on 2,048 keys (15 ticks
// ingested), and every op re-plans it in place with Replan(0) — export,
// resume on a fresh pipeline, teardown of the old one. in-process runs
// goroutine shards; 2-workers runs the same on two shard workers over
// loopback TCP, where the state crosses the wire out and back.
// Measuring only: it has no BENCH_*.json entry.
func BenchmarkReplan(b *testing.B) {
	const keys, ticks = 2048, 15
	events := make([]stream.Event, 0, keys*ticks)
	for tick := int64(0); tick < ticks; tick++ {
		for k := 0; k < keys; k++ {
			events = append(events, stream.Event{Time: tick, Key: uint64(k), Value: float64(k%7) + 0.5})
		}
	}
	for _, workers := range []int{0, 2} {
		name := "in-process"
		if workers > 0 {
			name = fmt.Sprintf("%d-workers", workers)
		}
		b.Run(name, func(b *testing.B) {
			cfg := Config{Shards: 4}
			if workers > 0 {
				cfg.Workers, _ = startShardWorkers(b, workers)
			}
			s := New(cfg)
			defer s.Close()
			if _, err := s.Register("q", "SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 8), TumblingWindow(tick, 16))"); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Ingest(events); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Replan(0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if s.StatsNow().Migrated == 0 {
				b.Fatal("re-plans migrated no open instances")
			}
		})
	}
}
