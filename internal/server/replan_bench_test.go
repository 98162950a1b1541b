package server

import (
	"fmt"
	"testing"

	"factorwindows/internal/stream"
)

// BenchmarkReplan measures one re-plan with open state: a SUM query over
// T8 and T16 on 4 shards holds open instances on 2,048 keys (15 ticks
// ingested). in-process runs goroutine shards; 2-workers runs the same
// on two shard workers over loopback TCP, where the state crosses the
// wire out and back.
//
//   - The plain cases re-plan in place with Replan(0): the plan does not
//     change, so every shard engine is carried over and restored.
//   - The cross-plan cases alternately register and unregister a query
//     over T32, which changes the plan both ways, so every op carries the
//     open T8 and T16 instances into another plan through the canonical
//     export.
//
// Both use server API only. Measuring only: it has no BENCH_*.json entry.
func BenchmarkReplan(b *testing.B) {
	const keys, ticks = 2048, 15
	events := make([]stream.Event, 0, keys*ticks)
	for tick := int64(0); tick < ticks; tick++ {
		for k := 0; k < keys; k++ {
			events = append(events, stream.Event{Time: tick, Key: uint64(k), Value: float64(k%7) + 0.5})
		}
	}
	const other = "SELECT DeviceID, SUM(T) FROM In GROUP BY DeviceID, Windows(TumblingWindow(tick, 32))"
	for _, cross := range []bool{false, true} {
		for _, workers := range []int{0, 2} {
			name := "in-process"
			if workers > 0 {
				name = fmt.Sprintf("%d-workers", workers)
			}
			if cross {
				name = "cross-plan-" + name
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
				replan := func(i int) error {
					switch {
					case !cross:
						return s.Replan(0)
					case i%2 == 0:
						_, err := s.Register("other", other)
						return err
					default:
						return s.Unregister("other")
					}
				}
				if cross {
					// The plan's cost names its shape: registering the T32
					// query must change it, and unregistering restore it.
					base := s.StatsNow().CombinedCost
					if err := replan(0); err != nil {
						b.Fatal(err)
					}
					if s.StatsNow().CombinedCost == base {
						b.Fatal("registering the T32 query kept the plan; the case is not cross-plan")
					}
					if err := replan(1); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := replan(i); err != nil {
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
}
