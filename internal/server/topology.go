// Distributed topology: the worker set and its live reshaping, each
// change a mutation through the order point like any other.

package server

import (
	"errors"
	"fmt"
	"slices"

	"factorwindows/internal/router"
)

// AddWorker admits a worker process at addr into the distributed
// topology, or revives one that previously died. The worker carries no
// shards until MoveShard (or a failover) places some; the address also
// joins the server's worker set so later re-plans and checkpoint
// restores rebuild onto it.
func (s *Server) AddWorker(addr string) error {
	return s.mutate(refuseLocal, func() error {
		if addr == "" {
			return errors.New("server: empty worker address")
		}
		known := slices.Contains(s.workers, addr)
		if s.pipe != nil {
			if err := s.pipe.router.AddWorker(addr); err != nil {
				return fmt.Errorf("%w: %v", ErrConflict, err)
			}
		} else if known {
			return fmt.Errorf("%w: worker %s already present", ErrConflict, addr)
		}
		if !known {
			s.workers = append(s.workers, addr)
		}
		return nil
	})
}

// MoveShard reassigns one shard to the worker at addr through the
// zero-gap migration: the router barriers, snapshots the shard's
// engine, transfers it, and the target restores it — the result stream
// continues exactly.
// Serializes with ingest on s.mu, so no batch is in flight mid-move.
func (s *Server) MoveShard(shard int, addr string) error {
	return s.mutate(refuseLocal|refuseEngine, func() error {
		if s.pipe == nil {
			return fmt.Errorf("%w: no live pipeline (register queries first)", ErrConflict)
		}
		if err := s.pipe.router.Rebalance(shard, addr); err != nil {
			// Keep the router's typed errors (e.g. ErrShardDown) reachable
			// through the HTTP-status sentinel.
			return fmt.Errorf("%w: %w", ErrConflict, err)
		}
		return nil
	})
}

// DrainWorker migrates every shard off the worker at addr (each via
// the same zero-gap move as MoveShard) and retires it from the
// topology and the server's worker set, so later re-plans stop
// dialing it. The last live worker refuses to drain.
func (s *Server) DrainWorker(addr string) error {
	return s.mutate(refuseLocal|refuseEngine, func() error {
		if !slices.Contains(s.workers, addr) {
			return fmt.Errorf("%w: worker %s", ErrNotFound, addr)
		}
		if s.pipe != nil {
			if err := s.pipe.router.Drain(addr); err != nil {
				return fmt.Errorf("%w: %w", ErrConflict, err)
			}
		} else if len(s.workers) == 1 {
			return fmt.Errorf("%w: cannot drain the last worker", ErrConflict)
		}
		s.workers = slices.DeleteFunc(s.workers, func(w string) bool { return w == addr })
		return nil
	})
}

// TopologyNow reports the distributed topology (nil when the server is
// single-process or has no live pipeline).
func (s *Server) TopologyNow() *router.Topology {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pipe != nil && s.pipe.router != nil {
		t := s.pipe.router.Topology()
		return &t
	}
	return nil
}
