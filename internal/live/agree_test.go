package live

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"timebounds/internal/core"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// TestRunAgreesWithSimulator runs one sequential schedule — each operation
// invoked well after the previous one responded — on 3 replicas in the
// simulator and on the wall clock over the chan transport. Both runtimes
// drive the same core.Replica, and a linearizable run of a sequential
// schedule has exactly one legal set of responses, so both must return the
// same values and converge to the same state.
func TestRunAgreesWithSimulator(t *testing.T) {
	type op struct {
		proc model.ProcessID
		kind spec.OpKind
		arg  spec.Value
	}
	cases := []struct {
		dt  spec.DataType
		ops []op
	}{
		{types.NewRMWRegister(0), []op{
			{0, types.OpWrite, 1}, {1, types.OpRead, nil}, {2, types.OpRMW, 5},
			{0, types.OpRead, nil}, {1, types.OpWrite, 7}, {2, types.OpRMW, 9}, {1, types.OpRead, nil},
		}},
		{types.NewCounter(), []op{
			{0, types.OpIncrement, 2}, {1, types.OpGet, nil}, {2, types.OpIncrement, 3},
			{1, types.OpIncrement, 4}, {0, types.OpGet, nil}, {2, types.OpGet, nil},
		}},
		{types.NewQueue(), []op{
			{0, types.OpEnqueue, 1}, {1, types.OpEnqueue, 2}, {2, types.OpPeek, nil}, {0, types.OpDequeue, nil},
			{2, types.OpDequeue, nil}, {1, types.OpDequeue, nil}, {2, types.OpEnqueue, 3}, {1, types.OpPeek, nil},
		}},
	}
	const gap = 40 * time.Millisecond
	for _, c := range cases {
		t.Run(c.dt.Name(), func(t *testing.T) {
			p := model.Params{N: 3, D: 2 * time.Millisecond, U: time.Millisecond, Epsilon: 500 * time.Microsecond}
			cl, err := core.NewCluster(core.Config{Params: p}, c.dt, sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			invs := make([]Invocation, len(c.ops))
			for i, o := range c.ops {
				at := model.Time(i) * gap
				cl.Invoke(at, o.proc, o.kind, o.arg)
				invs[i] = Invocation{At: at, Proc: o.proc, Kind: o.kind, Arg: o.arg}
			}
			if err := cl.Run(model.Time(len(c.ops)+1) * gap); err != nil {
				t.Fatal(err)
			}
			simState, err := cl.ConvergedState()
			if err != nil {
				t.Fatal(err)
			}

			// A wall-clock run is only sequential if every operation beat
			// the gap; on a loaded host the estimator can pad the waits past
			// it. Such a run proves nothing here, so it is made again.
			var rr RunResult
			for attempt := 1; ; attempt++ {
				rr, err = Run(Config{N: 3, DataType: c.dt, Transport: &ChanTransport{
					Delay: UniformDelay(3, p.MinDelay(), p.D),
				}}, invs)
				if err != nil {
					t.Fatal(err)
				}
				if rr.Pending != 0 {
					t.Fatalf("%d live operations never responded", rr.Pending)
				}
				if err := sequential(rr.History.Ops()); err == nil {
					break
				} else if attempt == 4 {
					t.Fatalf("no sequential live run in %d attempts: %v (estimate %s)", attempt, err, rr.Estimate)
				} else {
					t.Logf("attempt %d not sequential, retrying: %v", attempt, err)
				}
			}
			simOps, liveOps := cl.History().Ops(), rr.History.Ops()
			if len(liveOps) != len(simOps) {
				t.Fatalf("live recorded %d ops, sim %d", len(liveOps), len(simOps))
			}
			for i := range liveOps {
				s, l := simOps[i], liveOps[i]
				if s.Proc != l.Proc || s.Kind != l.Kind || !reflect.DeepEqual(s.Ret, l.Ret) {
					t.Errorf("op %d: sim %d %s → %v, live %d %s → %v", i, s.Proc, s.Kind, s.Ret, l.Proc, l.Kind, l.Ret)
				}
			}
			for i, st := range rr.States {
				if st != simState {
					t.Errorf("live replica %d state %q, simulated %q", i, st, simState)
				}
			}
		})
	}
}

// sequential reports the first operation invoked before its predecessor
// responded.
func sequential(ops []history.Record) error {
	for i := 1; i < len(ops); i++ {
		if ops[i].Invoke < ops[i-1].Respond {
			return fmt.Errorf("op %d invoked before op %d (latency %s) responded", i, i-1, ops[i-1].Latency())
		}
	}
	return nil
}

// TestRunLeavesNoGoroutines checks that a finished run — over either
// transport — has stopped every goroutine it started: receive loops,
// inbox pumps, TCP readers and writers, and the retuner.
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, tr := range []Transport{&ChanTransport{}, &TCPTransport{}} {
		invs := []Invocation{{Proc: 0, Kind: types.OpWrite, Arg: 1}, {At: 2 * time.Millisecond, Proc: 1, Kind: types.OpRead}}
		if _, err := Run(Config{N: 3, DataType: types.NewRegister(0), Transport: tr}, invs); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines running after the runs, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
