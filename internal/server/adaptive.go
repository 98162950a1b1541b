// Adaptive re-planning: the ingest path's observation window and the
// cost-model evaluation that re-plans when the workload drifts.

package server

import (
	"fmt"
	"math"

	"factorwindows/internal/adaptive"
	"factorwindows/internal/stream"
)

// observe folds one ingested batch into the adaptive observation window
// and re-evaluates the plan when the window spans AdaptiveEpoch ticks.
// Events below sealed — the release horizon before the batch was pushed
// — were judged late by the reorder buffer and (under the drop policy)
// never executed, so they must not inflate the estimate: the plan
// should fit the traffic the engine actually processes. Callers hold
// s.mu and have barriered the pipeline; an error is a re-plan's failed
// publish.
func (s *Server) observe(events []stream.Event, sealed int64) error {
	if len(events) == 0 {
		return nil
	}
	if s.obs.keys == nil {
		s.obs.keys = make(map[uint64]struct{})
	}
	epoch := s.cfg.AdaptiveEpoch
	for i := range events {
		t := events[i].Time
		if t < sealed {
			continue
		}
		if s.obs.start < 0 {
			s.obs.start, s.obs.last = t, t
		}
		if t > s.obs.last+epoch*adaptiveJumpGuard {
			// Time jump (a far-future flush event, a clock skip, a gap in
			// a replayed stream): close the window at its last dense tick
			// instead of letting one timestamp stretch the span and
			// dilute the rate estimate toward zero — one synthetic event
			// must not re-plan the server onto a low-η plan, and a
			// densely observed wide window must still count.
			if s.obs.last-s.obs.start+1 >= epoch {
				if err := s.evaluateAdaptive(); err != nil {
					return err
				}
			}
			s.resetObs()
			s.obs.start, s.obs.last = t, t
		}
		if t > s.obs.last {
			s.obs.last = t
		}
		s.obs.keys[events[i].Key] = struct{}{}
		s.obs.events++
	}
	if s.obs.last-s.obs.start+1 >= epoch {
		if err := s.evaluateAdaptive(); err != nil {
			return err
		}
		s.resetObs()
	}
	return nil
}

// resetObs clears the adaptive observation window for its next span.
func (s *Server) resetObs() {
	s.obs.events = 0
	s.obs.start = -1
	s.obs.last = 0
	if len(s.obs.keys) > obsKeysRetain {
		// Go maps never shrink: one high-cardinality burst must not pin
		// its bucket array for the server's lifetime (the observation
		// counterpart of the executors' egressRetain rule).
		s.obs.keys = make(map[uint64]struct{})
	} else {
		clear(s.obs.keys)
	}
}

// obsKeysRetain bounds the retained capacity of the adaptive
// observation window's key set, in distinct keys.
const obsKeysRetain = 1 << 16

// adaptiveJumpGuard is the factor by which an event may outrun the
// observation window's newest tick (in AdaptiveEpoch units) before it
// is judged a time jump that closes the window rather than the stream's
// own pace widening it.
const adaptiveJumpGuard = 8

// evaluateAdaptive re-prices the running plan under the observed
// per-key event rate and re-plans in place when the cost model finds a
// structurally better plan by at least the configured overpay factor.
// The estimate follows Observation 1's unit: aggregation is per key, so
// the rate that prices a raw-reading window is events per tick per
// active key — a cardinality shift moves it as much as a rate shift.
// A re-plan ends in the publish step, like every other; its error is
// the only one returned.
func (s *Server) evaluateAdaptive() error {
	ticks := s.obs.last - s.obs.start + 1
	keys := len(s.obs.keys)
	if ticks <= 0 || keys == 0 {
		return nil
	}
	// Float arithmetic: a single far-future event (the documented flush
	// idiom) makes ticks enormous, and keys·ticks must neither overflow
	// nor panic — it just waters the estimate down toward the clamp.
	eta := int64(math.Round(float64(s.obs.events) / (float64(ticks) * float64(keys))))
	if eta < 1 {
		eta = 1
	}
	s.lastEta = eta
	s.lastKeys = keys
	cur := s.planEta
	if cur < 1 {
		cur = 1
	}
	if eta == cur {
		s.lastOverpay = 1
		return nil
	}
	adv, err := s.advise(eta)
	if err != nil {
		return nil
	}
	s.lastOverpay = adv.Overpay()
	if !adv.Reoptimize || adv.Overpay() < s.cfg.AdaptiveOverpay {
		return nil
	}
	prev := s.planEta
	s.planEta = eta
	if err := s.replan(); err != nil {
		s.planEta = prev
		return nil
	}
	s.replans.Adaptive++
	return s.publishLocked()
}

// advise re-runs the optimizer under eta and compares it against the
// deployed plan's structure re-priced at the same rate.
func (s *Server) advise(eta int64) (adaptive.Advice, error) {
	if s.pipe == nil {
		return adaptive.Advice{}, fmt.Errorf("server: no deployed plan")
	}
	adv, err := adaptive.NewAdvisor(s.pipe.plan.Union, s.fn, s.optimizeOptions(s.planEta), s.pipe.plan.Optimization)
	if err != nil {
		return adaptive.Advice{}, err
	}
	return adv.Evaluate(eta)
}
