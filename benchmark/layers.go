package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"timebounds/internal/check"
	"timebounds/internal/engine"
	"timebounds/internal/history"
	"timebounds/internal/spec"
)

// printResult hashes every model-time outcome of one engine Result into
// h: verdicts, converged state, per-kind latency statistics and bound
// checks. Wall-clock fields (the live report) are left out.
func printResult(h hash.Hash64, res engine.Result) {
	fmt.Fprintf(h, "%s|%s|%d|%v|%v|%v|%q|%d|%q\n", res.Name, res.Err, res.Ops,
		res.Checked, res.Linearizable, res.Converged, res.State, res.Pending, res.Diverged)
	kinds := make([]string, 0, len(res.PerKind))
	for k := range res.PerKind {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		st := res.PerKind[spec.OpKind(k)]
		fmt.Fprintf(h, "%s:%d:%d:%d:%d:%d\n", k, st.Count, st.Min, st.Max, st.Mean, st.P99)
	}
	for _, b := range res.Bounds {
		fmt.Fprintf(h, "%d:%d:%d:%d:%v\n", b.Class, b.Count, b.Bound, b.Measured, b.OK)
	}
}

// resultHash is printResult into a fresh hash.
func resultHash(res engine.Result) uint64 {
	h := fnv.New64a()
	printResult(h, res)
	return h.Sum64()
}

// combine hashes per-item fingerprints in order.
func combine(prints []uint64) uint64 {
	h := fnv.New64a()
	for _, p := range prints {
		fmt.Fprintf(h, "%x\n", p)
	}
	return h.Sum64()
}

// verdictErr reports why a verified engine Result is wrong, or nil: it
// failed, was not checked, is not linearizable, diverged, exceeded a
// bound, or left operations pending.
func verdictErr(res engine.Result) error {
	switch {
	case res.Err != "":
		return fmt.Errorf("%s: %s", res.Name, res.Err)
	case !res.Checked:
		return fmt.Errorf("%s: history was not checked", res.Name)
	case !res.Linearizable:
		return fmt.Errorf("%s: history is not linearizable", res.Name)
	case res.Pending > 0:
		return fmt.Errorf("%s: %d operations pending", res.Name, res.Pending)
	case !res.Converged:
		return fmt.Errorf("%s: %s", res.Name, res.Diverged)
	}
	for _, b := range res.Bounds {
		if !b.OK {
			return fmt.Errorf("%s: %s worst latency %s exceeds bound %s", res.Name, b.Class, b.Measured, b.Bound)
		}
	}
	if !res.OK() {
		return fmt.Errorf("%s: result not OK", res.Name)
	}
	return nil
}

// historyLatency fills u's client latency summary from the completed
// operations of histories, in their clock: the sum and count behind the
// mean, and the p50 and p99 that have enough samples beyond them.
func historyLatency(u *unitOut, hs ...*history.History) {
	var d dist
	for _, h := range hs {
		if h == nil {
			continue
		}
		for _, op := range h.Ops() {
			if !op.Pending {
				d.add(ms(op.Latency()), 1)
				u.latSum += ms(op.Latency())
			}
		}
	}
	u.latN = d.n
	u.latPct = percentiles(&d)
}

// percentiles returns d's p50 and p99, leaving out those with too few
// samples beyond them.
func percentiles(d *dist) map[string]float64 {
	out := map[string]float64{}
	for _, p := range []float64{50, 99} {
		if v, _, err := d.percentile(p); err == nil {
			out[fmt.Sprintf("p%g", p)] = v
		}
	}
	return out
}

// buildSchedules expands every scenario's invocation schedule, the
// set-up work a run's inputs need, and reports the first that fails.
func buildSchedules(scs []engine.Scenario) error {
	for i, sc := range scs {
		if _, err := sc.Workload.WithDefaults(sc.Params, sc.DataType).Schedule(sc.Params, sc.Seed); err != nil {
			return fmt.Errorf("scenario %d: schedule: %w", i, err)
		}
	}
	return nil
}

// checkTimed runs the checker on h inside a "check" span under parent,
// with the worker's arena and the shared per-type cache, as the engine
// does.
func checkTimed(t *tracer, parent spanRef, unit int, dt spec.DataType, h *history.History, opts check.Options) check.Result {
	id := t.begin("check", parent, unit)
	cr := check.CheckOpts(dt, h, opts)
	t.end(id, h.Len())
	return cr
}

// runTraced does what the engine does for one verified scenario, as two
// timed calls under parent: the unverified run (sim.run) and the check
// of its history (check). The Result carries the check's verdict, as a
// verified run's would. opts.Cache is filled from caches.
func runTraced(t *tracer, parent spanRef, unit int, eng *engine.Engine, sc engine.Scenario, opts check.Options, caches *check.CacheSet) (engine.Result, check.Result) {
	sc.Verify = false
	id := t.begin("sim.run", parent, unit)
	res, _ := eng.RunOne(sc) // a failed run is reported through res.Err
	t.end(id, res.Ops)
	var cr check.Result
	if res.History != nil {
		opts.Cache = caches.For(sc.DataType)
		cr = checkTimed(t, parent, unit, sc.DataType, res.History, opts)
		res.Checked, res.Linearizable = true, cr.Linearizable
	}
	return res, cr
}

// forEach calls fn for every index in [0, n) on workers goroutines, each
// with its own checker arena as an engine worker has, and returns once
// all calls have returned.
func forEach(workers, n int, fn func(arena *check.Arena, i int)) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := check.NewArena()
			for i := range jobs {
				fn(arena, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// replayTypes replays h's operations, in invocation order, through the
// data type: one span for the Apply calls and one for EncodeState on
// every resulting state, both outside any unit.
func replayTypes(t *tracer, dt spec.DataType, h *history.History) {
	ops := h.Ops()
	states := make([]spec.State, len(ops))
	id := t.begin("types.apply", noSpan, -1)
	s := dt.InitialState()
	for i, op := range ops {
		s, _ = dt.Apply(s, op.Kind, op.Arg)
		states[i] = s
	}
	t.end(id, len(ops))
	id = t.begin("types.encode", noSpan, -1)
	for _, s := range states {
		_ = dt.EncodeState(s)
	}
	t.end(id, len(ops))
}

// allocProbe accumulates heap allocations attributed to one layer.
type allocProbe struct {
	objects uint64
	ops     int
}

// measure runs fn, which handles ops client operations, and adds its
// allocations. Callers run probes sequentially so the process counters
// see only fn.
func (p *allocProbe) measure(fn func() int) {
	before := readAllocs()
	ops := fn()
	p.objects += before.since().objects
	p.ops += ops
}

func (p *allocProbe) perOp() float64 {
	if p.ops == 0 {
		return 0
	}
	return float64(p.objects) / float64(p.ops)
}

// probeSim runs sc on the simulator with verification off, recording a
// sim.run span outside any unit and its allocations, and returns the
// result for the check and types probes.
func probeSim(t *tracer, eng *engine.Engine, sc engine.Scenario, allocs *allocProbe) (engine.Result, error) {
	sc.Verify = false
	var res engine.Result
	var err error
	allocs.measure(func() int {
		id := t.begin("sim.run", noSpan, -1)
		res, err = eng.RunOne(sc)
		t.end(id, res.Ops)
		return res.Ops
	})
	if err == nil && res.History == nil {
		err = fmt.Errorf("%s: no history recorded", res.Name)
	}
	return res, err
}

// probeCheck checks h sequentially and adds its allocations.
func probeCheck(dt spec.DataType, h *history.History, opts check.Options, allocs *allocProbe) error {
	var cr check.Result
	allocs.measure(func() int {
		cr = check.CheckOpts(dt, h, opts)
		return h.Len()
	})
	if !cr.Linearizable {
		return fmt.Errorf("probe history of %s is not linearizable", dt.Name())
	}
	return nil
}

// probeScenarios probes the scenarios in turn, until the deadline and at
// least once: the schedule expansion (workload.schedule), an unverified
// run (sim.run, with its allocations), a sequential check of its history
// (allocations) and the replay through the data type.
func probeScenarios(t *tracer, eng *engine.Engine, scs []engine.Scenario, deadline time.Time) (map[string]float64, error) {
	var simAllocs, checkAllocs allocProbe
	caches := check.NewCacheSet()
	arena := check.NewArena()
	for i, sc := range scs {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		id := t.begin("workload.schedule", noSpan, -1)
		sched, err := sc.Workload.WithDefaults(sc.Params, sc.DataType).Schedule(sc.Params, sc.Seed)
		t.end(id, len(sched.Invocations))
		if err != nil {
			return nil, err
		}
		res, err := probeSim(t, eng, sc, &simAllocs)
		if err != nil {
			return nil, err
		}
		opts := check.Options{Arena: arena, Cache: caches.For(sc.DataType)}
		if err := probeCheck(sc.DataType, res.History, opts, &checkAllocs); err != nil {
			return nil, err
		}
		replayTypes(t, sc.DataType, res.History)
	}
	return map[string]float64{
		"sim.allocs_per_op":   simAllocs.perOp(),
		"check.allocs_per_op": checkAllocs.perOp(),
	}, nil
}

// medianSpan returns the median, over units, of f applied to the closed
// spans named name in each unit; 0 without such spans.
func medianSpan(spans []span, name string, f func(cur, d time.Duration) time.Duration) float64 {
	per := map[int]time.Duration{}
	for _, s := range spans {
		if s.Name == name && s.End >= 0 && s.Unit >= 0 {
			per[s.Unit] = f(per[s.Unit], s.dur())
		}
	}
	vs := make([]float64, 0, len(per))
	for _, d := range per {
		vs = append(vs, ms(d))
	}
	return median(vs)
}

func maxDur(cur, d time.Duration) time.Duration { return max(cur, d) }
