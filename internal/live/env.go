package live

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"timebounds/internal/core"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
)

// env is the wall-clock sim.Env one live replica runs behind: it drives a
// core.Replica — the same Algorithm 1 the simulator runs — on real time.
// Its mutex serializes every step (invocation, message, timer, retune),
// which is all the locking the replica needs. Timers wait in a queue
// ordered by due time and fire in that order from time.AfterFunc; while
// one runs, ClockTime is exactly the due time it was armed for, as in the
// simulator, so the replica's per-class FIFO assertion holds unweakened.
type env struct {
	self  model.ProcessID
	n     int
	ep    Endpoint
	est   *Estimator
	rec   *recorder
	clock func() model.Time // skewed local clock, safe without the lock

	mu      sync.Mutex
	r       *core.Replica
	now     model.Time // clock time of the current step
	last    model.Time // clock time of the last wall-clock step
	timers  []timer    // armed, by due time; arming order among equals
	stopped bool

	done chan struct{} // closed when the receive loop exits
}

type timer struct {
	due     model.Time
	payload any
}

var _ sim.Env = (*env)(nil)

func newEnv(id model.ProcessID, n int, r *core.Replica, ep Endpoint,
	est *Estimator, rec *recorder, clock func() model.Time) *env {
	return &env{self: id, n: n, r: r, ep: ep, est: est, rec: rec, clock: clock,
		done: make(chan struct{})}
}

// start launches the receive loop. It runs until the endpoint's Recv
// channel closes; even after stop it keeps draining (and observing
// delays of) in-flight messages so transport pumps never block.
func (e *env) start() {
	go func() {
		defer close(e.done)
		for m := range e.ep.Recv() {
			e.est.Observe(e.clock() - m.SentAt)
			if m.Probe {
				continue
			}
			e.mu.Lock()
			if e.step() {
				e.r.OnMessage(e, m.From, m.Entry)
			}
			e.mu.Unlock()
		}
	}()
}

// step opens a wall-clock step, reporting false once the replica has
// stopped. Step times strictly increase, so two invocations reading the
// same clock still get distinct timestamps. The caller holds the lock.
func (e *env) step() bool {
	if e.stopped {
		return false
	}
	e.now = max(e.clock(), e.last+1)
	e.last = e.now
	return true
}

// invoke hands one invocation to the replica. The caller must have
// recorded it first (the response can fire within microseconds).
func (e *env) invoke(id history.OpID, kind spec.OpKind, arg spec.Value) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.step() {
		e.r.OnInvoke(e, id, kind, arg)
	}
}

// fire runs the earliest armed timer. Each armed timer schedules one fire
// at its own due time, and the earliest due is never later than that, so
// timers run in due order and never early.
func (e *env) fire() {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.timers[0]
	e.timers = slices.Delete(e.timers, 0, 1)
	if e.stopped {
		return
	}
	e.now = t.due
	e.r.OnTimer(e, t.payload)
}

// setWaits installs retuned waits between steps.
func (e *env) setWaits(w core.Waits) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.r.SetWaits(w)
}

// send stamps m with the sender and its clock, so the receiver can
// sample the one-way delay.
func (e *env) send(to model.ProcessID, m Message) {
	m.From, m.SentAt = e.self, e.clock()
	_ = e.ep.Send(to, m)
}

// probe broadcasts one estimator warm-up probe.
func (e *env) probe() {
	for p := 0; p < e.n; p++ {
		if model.ProcessID(p) != e.self {
			e.send(model.ProcessID(p), Message{Probe: true})
		}
	}
}

// idle reports whether the replica has no armed timers — quiescence, once
// the transport has nothing in flight.
func (e *env) idle() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.timers) == 0
}

// stop freezes the replica: armed timers and late messages become no-ops.
func (e *env) stop() {
	e.mu.Lock()
	e.stopped = true
	e.mu.Unlock()
}

// stateEncoding returns the canonical encoding of the local copy.
func (e *env) stateEncoding() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.r.LocalStateEncoding()
}

// Self implements sim.Env.
func (e *env) Self() model.ProcessID { return e.self }

// N implements sim.Env.
func (e *env) N() int { return e.n }

// ClockTime implements sim.Env.
func (e *env) ClockTime() model.Time { return e.now }

// Send implements sim.Env. Live runs carry operation entries only; the
// lifecycle's state-transfer messages need fault plans, which live runs
// reject.
func (e *env) Send(to model.ProcessID, payload any) {
	entry, ok := payload.(core.Entry)
	if !ok {
		panic(fmt.Sprintf("live: no wire form for %T", payload))
	}
	e.send(to, Message{Entry: entry})
}

// Broadcast implements sim.Env.
func (e *env) Broadcast(payload any) {
	for p := 0; p < e.n; p++ {
		if model.ProcessID(p) != e.self {
			e.Send(model.ProcessID(p), payload)
		}
	}
}

// SetTimerAfter implements sim.Env. Live timers cannot be canceled, so
// they carry no id.
func (e *env) SetTimerAfter(d model.Time, payload any) sim.TimerID {
	due := e.now + max(d, 0)
	i := sort.Search(len(e.timers), func(i int) bool { return e.timers[i].due > due })
	e.timers = slices.Insert(e.timers, i, timer{due: due, payload: payload})
	time.AfterFunc(time.Duration(due-e.clock()), e.fire)
	return 0
}

// CancelTimer implements sim.Env. Algorithm 1 never cancels a timer (its
// per-class FIFO pairing could not survive one), so live runs support none.
func (e *env) CancelTimer(sim.TimerID) {
	panic("live: timers cannot be canceled")
}

// Respond implements sim.Env.
func (e *env) Respond(id history.OpID, ret spec.Value) { e.rec.respond(id, ret) }
