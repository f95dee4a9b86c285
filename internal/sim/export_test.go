package sim

import "timebounds/internal/model"

// RunUnbatched is the reference event loop: one heap pop, one dispatch.
// It is semantically identical to Run and exists so the equivalence tests
// can assert that batched dispatch is unobservable (bit-identical
// histories and traces).
func (s *Simulator) RunUnbatched(horizon model.Time) error {
	for len(s.queue) > 0 {
		t := s.queue[0].at
		if t > horizon {
			return s.err
		}
		if t < s.now {
			return s.timeRegression(t)
		}
		s.now = t
		ref := s.pop()
		s.dispatch(ref)
		s.release(ref)
		if s.err != nil {
			return s.err
		}
	}
	return s.err
}

// StaticDelayMatrix reports whether the simulator precomputed a static
// delay matrix for its policy.
func (s *Simulator) StaticDelayMatrix() bool { return s.delayMat != nil }
