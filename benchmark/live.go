package main

import (
	"runtime"
	"sync"
	"time"

	"timebounds/internal/check"
	"timebounds/internal/engine"
	"timebounds/internal/live"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// liveProbe measures the live runtime from outside, in the shape of the
// cmd/tbbench live/inproc-cluster entry: 3 Algorithm 1 replicas on the
// wall clock over the in-process chan transport, one-way delays uniform
// in [d−u, d] for d = 2ms, u = 1.5ms, an RMW register, one closed-loop
// client per replica with a 2ms gap between operations, and the post-hoc
// check. The grid-verified workload makes these cluster runs in the probe
// phase of its traced run; each is judged like a unit.
type liveProbe struct {
	scenarios []engine.Scenario
	eng       *engine.Engine
	next      int
}

const (
	// liveOpsPerClient sizes a cluster run: 3 clients × 170 ops, a few
	// seconds of wall clock.
	liveOpsPerClient = 170
	// liveMinRuns cluster runs record 1020 operations, enough for a p99
	// with ten samples beyond it.
	liveMinRuns = 2
	// liveSeeds is how many derived seeds the cluster runs take in turn.
	liveSeeds = 8
)

func newLiveProbe(seed int64) (*liveProbe, error) {
	seeds := make([]int64, liveSeeds)
	for i := range seeds {
		seeds[i] = seed*liveSeeds + int64(i) + 1
	}
	g := engine.Grid{
		Objects:   []spec.DataType{types.NewRMWRegister(0)},
		Params:    []model.Params{{N: 3, D: 2 * time.Millisecond, U: 1500 * time.Microsecond}},
		Seeds:     seeds,
		Delays:    []engine.DelaySpec{{Mode: engine.DelayRandom}},
		Workloads: []workload.Spec{{OpsPerProcess: liveOpsPerClient, Spacing: 2 * time.Millisecond}},
		Runtimes:  []engine.Runtime{engine.LiveRuntime()},
		Verify:    true,
	}
	scs := g.Scenarios()
	if err := buildSchedules(scs); err != nil {
		return nil, err
	}
	return &liveProbe{scenarios: scs, eng: engine.New(1)}, nil
}

// liveRun is one cluster run: its judged outcome, the wall-clock
// latency of every operation (ms), and what it told about the live layer.
type liveRun struct {
	out   unitOut
	lat   []sample
	stats map[string]float64
}

// run makes one cluster run as the engine's verified live run does, in
// two timed calls outside any unit: the run, unverified, through a
// transport that counts and times every Send (live.run), then the check
// of its history (check). Every operation's wall-clock latency is an
// op-latency sample.
func (l *liveProbe) run(t *tracer, sendNS *dist) liveRun {
	sc := l.scenarios[l.next]
	l.next = (l.next + 1) % len(l.scenarios)
	tr := &countingTransport{inner: &live.ChanTransport{Delay: live.UniformDelay(sc.Seed, sc.Params.MinDelay(), sc.Params.D)}}
	run := sc
	run.Verify = false
	run.Runtime.Transport = engine.TransportSpec{Custom: tr, Label: "chan"}
	start := time.Now()
	id := t.begin("live.run", noSpan, -1)
	res, _ := l.eng.RunOne(run) // a failed run is reported through res.Err
	t.end(id, res.Ops)
	if res.History != nil {
		cr := checkTimed(t, noSpan, -1, sc.DataType, res.History, check.Options{Arena: check.NewArena(), Cache: check.NewCache()})
		res.Checked, res.Linearizable = true, cr.Linearizable
	}
	r := liveRun{out: unitOut{wall: time.Since(start), ops: res.Ops + res.Pending}, stats: map[string]float64{}}
	if err := verdictErr(res); err != nil {
		r.out.err, r.out.failed = err, r.out.ops
	}
	if res.History != nil {
		for _, op := range res.History.Ops() {
			if !op.Pending {
				r.lat = append(r.lat, sample{ms(op.Latency()), 1})
			}
		}
	}
	if res.Live != nil {
		r.stats["live.estimate_d_ratio"] = float64(res.Live.Estimate.D) / float64(sc.Params.D)
		r.stats["live.warmup_ms"] = ms(res.Live.Warmup)
		r.stats["live.retunes"] = float64(res.Live.Retunes)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if res.Ops > 0 {
		r.stats["live.msgs_per_op"] = float64(tr.opMsgs) / float64(res.Ops)
	}
	sendNS.addAll(tr.sendNS.s)
	return r
}

// measure makes cluster runs until the deadline, at least liveMinRuns,
// and returns the live layer's metrics with the runs to judge: the
// median over runs of each run's figures, the Send p99 and the
// operation latency percentiles over all runs.
func (l *liveProbe) measure(t *tracer, deadline time.Time) (map[string]float64, []unitOut) {
	// Collect the earlier phases' garbage now rather than during the
	// cluster runs, whose latencies are wall-clock.
	runtime.GC()
	var sendNS, lat dist
	var outs []unitOut
	stats := map[string][]float64{}
	for i := 0; i < liveMinRuns || time.Now().Before(deadline); i++ {
		r := l.run(t, &sendNS)
		outs = append(outs, r.out)
		lat.addAll(r.lat)
		for k, v := range r.stats {
			stats[k] = append(stats[k], v)
		}
	}
	values := map[string]float64{}
	for k, vs := range stats {
		values[k] = median(vs)
	}
	if p99, _, err := sendNS.percentile(99); err == nil {
		values["live.send_ns_p99"] = p99
	}
	for k, v := range percentiles(&lat) {
		values["live.op_latency_ms_"+k] = v
	}
	return values, outs
}

// countingTransport wraps a live transport so every Send is counted and
// timed from outside the runtime.
type countingTransport struct {
	inner  live.Transport
	mu     sync.Mutex
	sendNS dist
	// opMsgs counts operation messages (warm-up probes excluded).
	opMsgs int
}

func (c *countingTransport) Name() string { return c.inner.Name() }

func (c *countingTransport) Open(n int) ([]live.Endpoint, error) {
	eps, err := c.inner.Open(n)
	if err != nil {
		return nil, err
	}
	out := make([]live.Endpoint, len(eps))
	for i, ep := range eps {
		out[i] = countingEndpoint{Endpoint: ep, tr: c}
	}
	return out, nil
}

type countingEndpoint struct {
	live.Endpoint
	tr *countingTransport
}

func (e countingEndpoint) Send(to model.ProcessID, m live.Message) error {
	start := time.Now()
	err := e.Endpoint.Send(to, m)
	d := time.Since(start)
	e.tr.mu.Lock()
	defer e.tr.mu.Unlock()
	e.tr.sendNS.add(float64(d.Nanoseconds()), 1)
	if !m.Probe {
		e.tr.opMsgs++
	}
	return err
}
