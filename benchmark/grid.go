package main

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"time"

	"timebounds/internal/check"
	"timebounds/internal/engine"
	"timebounds/internal/experiments"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// gridBench is grid-verified: the engine/large-grid axes (4 backends ×
// {register, counter} × {random, extremal} delays × 13 seeds, 200-op
// histories, verified), streamed through Engine.Stream into an
// engine.Aggregate. One unit is one pass over the grid.
type gridBench struct {
	grid      engine.Grid
	scenarios []engine.Scenario
	eng       *engine.Engine
	single    *engine.Engine
	workers   int
	// live is timed in the traced run's probe phase.
	live *liveProbe
}

// gridSeeds is how many seeds the grid crosses with its other axes.
const gridSeeds = 13

func setupGrid(seed int64) (bench, error) {
	seeds := make([]int64, gridSeeds)
	for i := range seeds {
		seeds[i] = seed*gridSeeds + int64(i) + 1
	}
	g := engine.Grid{
		Backends: engine.Backends(),
		Objects:  []spec.DataType{types.NewRegister(0), types.NewCounter()},
		Params:   []model.Params{experiments.DefaultParams(4)},
		Delays: []engine.DelaySpec{
			{Mode: engine.DelayRandom},
			{Mode: engine.DelayExtremal},
		},
		Seeds:     seeds,
		Workloads: []workload.Spec{{OpsPerProcess: 50}},
		Verify:    true,
	}
	scs := g.Scenarios()
	if err := buildSchedules(scs); err != nil {
		return nil, err
	}
	lp, err := newLiveProbe(seed)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	return &gridBench{
		grid:      g,
		scenarios: scs,
		eng:       engine.New(workers),
		single:    engine.New(1),
		workers:   workers,
		live:      lp,
	}, nil
}

// gridPass folds one pass's results, in completion order, into the
// aggregate and the unit's outcome.
type gridPass struct {
	start  time.Time
	agg    *engine.Aggregate
	prints []uint64
	out    unitOut
}

func newGridPass(n int) *gridPass {
	return &gridPass{start: time.Now(), agg: engine.NewAggregate(), prints: make([]uint64, n)}
}

// note records one scenario's verdict.
func (p *gridPass) note(i int, res engine.Result) {
	p.out.ops += res.Ops + res.Pending
	p.prints[i] = resultHash(res)
	if err := verdictErr(res); err != nil {
		p.out.failed += res.Ops + res.Pending
		if p.out.err == nil {
			p.out.err = err
		}
	}
}

// finish closes the pass: the aggregate must hold every scenario with
// no failure of any kind.
func (p *gridPass) finish(n int) unitOut {
	p.out.wall = time.Since(p.start)
	a := p.agg
	if p.out.err == nil && (!a.OK() || a.NotLinearizable+a.Diverged+a.BoundExceeded+a.Failed > 0 || a.Scenarios != n) {
		p.out.err = fmt.Errorf("aggregate of %d/%d scenarios: failed=%d not-linearizable=%d diverged=%d bound-exceeded=%d",
			a.Scenarios, n, a.Failed, a.NotLinearizable, a.Diverged, a.BoundExceeded)
		p.out.failed = p.out.ops
	}
	p.out.deterministic = true
	p.out.fingerprint = combine(p.prints)
	p.out.latN = a.Latency.Count()
	p.out.latSum = ms(a.Latency.Mean()) * float64(p.out.latN)
	p.out.latPct = map[string]float64{"p50": ms(a.Latency.P50()), "p99": ms(a.Latency.P99())}
	return p.out
}

func (g *gridBench) unit() unitOut {
	p := newGridPass(len(g.scenarios))
	for i, res := range g.eng.Stream(context.Background(), g.scenarios) {
		p.agg.Add(g.scenarios[i].DataType, res)
		p.note(i, res)
	}
	return p.finish(len(g.scenarios))
}

// traced runs the pass as the engine would, but from outside: a pool of
// workers runs each scenario under an engine.scenario span (runTraced:
// sim.run, then check with the worker's arena and a pass-wide cache set)
// while results fold into the aggregate as they arrive
// (engine.aggregate).
func (g *gridBench) traced(t *tracer, u int) unitOut {
	root := t.begin("unit", noSpan, u)
	p := newGridPass(len(g.scenarios))
	caches := check.NewCacheSet()
	type done struct {
		i      int
		res    engine.Result
		states int
	}
	results := make(chan done)
	go func() {
		defer close(results)
		forEach(g.workers, len(g.scenarios), func(arena *check.Arena, i int) {
			id := t.begin("engine.scenario", root, u)
			opts := check.Options{Arena: arena, Workers: g.workers}
			res, cr := runTraced(t, id, u, g.single, g.scenarios[i], opts, caches)
			t.end(id, res.Ops)
			results <- done{i, res, cr.StatesExplored}
		})
	}()
	states := 0
	for d := range results {
		a := t.begin("engine.aggregate", root, u)
		p.agg.Add(g.scenarios[d.i].DataType, d.res)
		t.end(a, 1)
		p.note(d.i, d.res)
		states += d.states
	}
	t.end(root, p.out.ops)
	out := p.finish(len(g.scenarios))
	out.stats = map[string]float64{"check.states_explored": float64(states)}
	return out
}

// probe times the grid's expansion, then probes its scenarios for the
// first half of the time left and the live runtime for the rest.
func (g *gridBench) probe(t *tracer, deadline time.Time) (map[string]float64, []unitOut, error) {
	id := t.begin("engine.expand", noSpan, -1)
	scs := g.grid.Scenarios()
	t.end(id, len(scs))
	probed, err := probeScenarios(t, g.single, scs, time.Now().Add(time.Until(deadline)/2))
	if err != nil {
		return nil, nil, err
	}
	values, runs := g.live.measure(t, deadline)
	maps.Copy(probed, values)
	return probed, runs, nil
}

func (g *gridBench) layers([]span, map[string]time.Duration) map[string]float64 { return nil }
