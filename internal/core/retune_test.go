package core

import (
	"slices"
	"sort"
	"testing"
	"time"

	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// stepEnv is a single-replica sim.Env the test drives by hand: a clock the
// test moves, a timer queue ordered by due time (arming order among
// equals), and a record of every response.
type stepEnv struct {
	t         *testing.T
	now       model.Time
	timers    []stepTimer
	responded map[history.OpID]bool
	installed Waits // the replica's current waits
	clamped   int   // timers armed later than their class's wait
}

type stepTimer struct {
	due     model.Time
	payload any
}

func (e *stepEnv) Self() model.ProcessID      { return 0 }
func (e *stepEnv) N() int                     { return 3 }
func (e *stepEnv) ClockTime() model.Time      { return e.now }
func (e *stepEnv) Send(model.ProcessID, any)  {}
func (e *stepEnv) Broadcast(any)              {}
func (e *stepEnv) CancelTimer(id sim.TimerID) { e.t.Fatalf("unexpected cancel of timer %d", id) }

func (e *stepEnv) Respond(id history.OpID, _ spec.Value) {
	if e.responded[id] {
		e.t.Fatalf("op %d responded twice", id)
	}
	e.responded[id] = true
}

func (e *stepEnv) SetTimerAfter(d model.Time, payload any) sim.TimerID {
	var wait model.Time
	switch payload.(type) {
	case selfAddTick:
		wait = e.installed.SelfAdd
	case executeTick:
		wait = e.installed.Execute
	case mutatorRespondTick:
		wait = e.installed.MutatorResponse
	case accessorRespondTick:
		wait = e.installed.AccessorResponse
	}
	if d < wait {
		e.t.Fatalf("%T armed %s after %s, shorter than the installed wait %s", payload, d, e.now, wait)
	}
	if d > wait {
		e.clamped++
	}
	due := e.now + d
	i := sort.Search(len(e.timers), func(i int) bool { return e.timers[i].due > due })
	e.timers = slices.Insert(e.timers, i, stepTimer{due: due, payload: payload})
	return 0
}

// TestSetWaitsMidRunKeepsClassesFIFO drives one replica through a fake
// Env and installs shorter waits in the middle of the run, as the live
// runtime's retuner does. Timers armed after the retune would overtake
// queued ones of their class; the replica must arm them no earlier than
// the class's last armed timer, so no class's FIFO desyncs (pop panics on
// one), every operation responds, and every entry executes.
func TestSetWaitsMidRunKeepsClassesFIFO(t *testing.T) {
	ms := model.Time(time.Millisecond)
	long := Config{Params: model.Params{N: 3, D: 10 * ms, U: 4 * ms, Epsilon: 2 * ms}, X: ms}
	short := long
	short.Params = model.Params{N: 3, D: 4 * ms, U: 2 * ms, Epsilon: ms}

	r := NewReplica(long, types.NewRMWRegister(0))
	env := &stepEnv{t: t, responded: map[history.OpID]bool{}, installed: long.Waits()}
	kinds := []spec.OpKind{types.OpWrite, types.OpRead, types.OpRMW}
	const ops = 40
	entries := 0
	retuned := false
	for next := 0; next < ops || len(env.timers) > 0; {
		at := model.Time(next) * ms
		if next < ops && (len(env.timers) == 0 || at < env.timers[0].due) {
			env.now = at
			if !retuned && at >= 20*ms {
				env.installed = short.Waits()
				r.SetWaits(env.installed)
				retuned = true
			}
			kind := kinds[next%len(kinds)]
			r.OnInvoke(env, history.OpID(next), kind, next)
			if kind != types.OpRead {
				entries++
			}
			if next%2 == 0 { // a remote peer's entry, stamped 3ms back
				r.OnMessage(env, 1, Entry{TS: model.Timestamp{Clock: at - 3*ms, Proc: 1}, Kind: types.OpWrite, Arg: -next})
				entries++
			}
			next++
			continue
		}
		tm := env.timers[0]
		env.timers = env.timers[1:]
		env.now = tm.due
		r.OnTimer(env, tm.payload)
	}
	if len(env.responded) != ops {
		t.Fatalf("%d of %d operations responded", len(env.responded), ops)
	}
	if r.Applied() != entries {
		t.Fatalf("applied %d of %d entries", r.Applied(), entries)
	}
	if env.clamped == 0 {
		t.Fatal("no timer was held back behind its class: the retune did not exercise the ordering rule")
	}
}
