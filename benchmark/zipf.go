package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"timebounds/internal/check"
	"timebounds/internal/engine"
	"timebounds/internal/history"
	"timebounds/internal/perf"
	"timebounds/internal/workload"
)

// zipfBench is zipf-migrate: the engine/zipf-store scenario of
// internal/perf (Zipf s=1.25 over 120 000 keys, 2400 ops in the default
// 4/3/1 put/get/delete mix, 12 range shards, one mid-run migration of the
// hottest key, verified) on seeds derived from the run's seed. One unit
// is one engine.RunSharded call; units take the stores of zipfInputs
// seeds in turn, so a run's figures do not hang on one draw.
type zipfBench struct {
	stores  []engine.ShardedScenario
	next    int
	eng     *engine.Engine
	single  *engine.Engine
	workers int
	// ref is the first unit's report, on the first store.
	ref *engine.ShardedReport
}

// zipfInputs is how many derived seeds a run's units cycle through.
const zipfInputs = 16

func setupZipf(seed int64) (bench, error) {
	workers := runtime.GOMAXPROCS(0)
	z := &zipfBench{eng: engine.New(workers), single: engine.New(1), workers: workers}
	for k := int64(0); k < zipfInputs; k++ {
		ss := perf.ZipfStoreScenario()
		ss.Seed = seed*zipfInputs + k + 1
		// Expansion validates the plan, partitions the stream and
		// replays the migration prefix.
		if _, err := ss.Scenarios(); err != nil {
			return nil, err
		}
		z.stores = append(z.stores, ss)
	}
	return z, nil
}

// store returns the next unit's input and its index.
func (z *zipfBench) store() (engine.ShardedScenario, int) {
	i := z.next
	z.next = (z.next + 1) % len(z.stores)
	return z.stores[i], i
}

// zipfErr reports why a sharded report is wrong, or nil.
func zipfErr(rep engine.ShardedReport) error {
	if err := rep.Err(); err != nil {
		return err
	}
	for _, res := range rep.Shards {
		if err := verdictErr(res); err != nil {
			return err
		}
	}
	switch {
	case !rep.Linearizable():
		return fmt.Errorf("%s: store does not compose linearizable", rep.Name)
	case rep.Stats.MovedKeys < 1:
		return fmt.Errorf("%s: the migration moved no keys", rep.Name)
	}
	return nil
}

// reportHash hashes every model-time outcome of a sharded report.
func reportHash(rep engine.ShardedReport) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%v|%+v\n", rep.Name, rep.Linearizable(), rep.Stats)
	for _, res := range rep.Shards {
		printResult(h, res)
	}
	for _, ho := range rep.Handoffs {
		fmt.Fprintf(h, "%+v\n", ho)
	}
	for _, b := range rep.Bounds {
		fmt.Fprintf(h, "%+v\n", b)
	}
	return h.Sum64()
}

// zipfOut judges one RunSharded report: its client operations,
// verdict, model-time fingerprint and latency.
func zipfOut(rep engine.ShardedReport, err error, input int) unitOut {
	out := unitOut{ops: rep.Ops, input: input, deterministic: true}
	if err == nil {
		err = zipfErr(rep)
	}
	if err != nil {
		out.err, out.failed = err, out.ops
	}
	out.fingerprint = reportHash(rep)
	hs := make([]*history.History, len(rep.Shards))
	for i, res := range rep.Shards {
		hs[i] = res.History
	}
	// The shard histories hold the synthetic handoff writes too (one per
	// migrated key).
	historyLatency(&out, hs...)
	return out
}

func (z *zipfBench) unit() unitOut {
	ss, input := z.store()
	start := time.Now()
	rep, err := z.eng.RunSharded(ss)
	out := zipfOut(rep, err, input)
	out.wall = time.Since(start)
	if z.ref == nil {
		z.ref = &rep
	}
	return out
}

// traced runs, under one unit span, the unit's RunSharded call
// (engine.run_sharded), whose report is judged as an untraced unit's is
// and whose client operations the unit counts. The store's merge
// (composition, the migrated keys' per-epoch and stitched checks, the
// fold) runs only there, as it has no exported entry point. Then the
// unit runs the same input again from outside, split into layers:
// expansion (engine.expand) and a pool of workers running each shard
// unverified (sim.run) and checking its history (check) under one
// engine.shard span each. Every shard of the split must reproduce
// RunSharded's outcome for it.
func (z *zipfBench) traced(t *tracer, u int) unitOut {
	ss, input := z.store()
	root := t.begin("unit", noSpan, u)
	id := t.begin(refSpan, root, u)
	rep, err := z.eng.RunSharded(ss)
	t.end(id, rep.Ops)
	out := zipfOut(rep, err, input)
	fail := func(err error) {
		if out.err == nil {
			out.err, out.failed = err, out.ops
		}
	}

	id = t.begin("engine.expand", root, u)
	scs, err := ss.Scenarios()
	t.end(id, len(scs))
	if err != nil {
		fail(err)
		out.wall = t.end(root, out.ops)
		return out
	}
	results := make([]engine.Result, len(scs))
	states := make([]int, len(scs))
	caches := check.NewCacheSet()
	pool := t.begin("engine.shards", root, u)
	forEach(z.workers, len(scs), func(arena *check.Arena, i int) {
		sh := t.begin("engine.shard", pool, u)
		opts := check.Options{Arena: arena, Workers: z.workers}
		res, cr := runTraced(t, sh, u, z.single, scs[i], opts, caches)
		t.end(sh, res.Ops)
		results[i], states[i] = res, cr.StatesExplored
	})
	t.end(pool, out.ops)
	total := 0
	for i, res := range results {
		if err := verdictErr(res); err != nil {
			fail(err)
		} else if i >= len(rep.Shards) || resultHash(res) != resultHash(rep.Shards[i]) {
			fail(fmt.Errorf("%s: the split run differs from RunSharded's", res.Name))
		}
		total += states[i]
	}
	out.wall = t.end(root, out.ops)
	out.stats = map[string]float64{"check.states_explored": float64(total)}
	return out
}

func (z *zipfBench) probe(t *tracer, deadline time.Time) (map[string]float64, []unitOut, error) {
	ss := z.stores[0]
	count := 0
	id := t.begin("keyspace.stream", noSpan, -1)
	err := ss.Workload.StreamOps(ss.Params, ss.Seed, func(workload.KeyOp) error {
		count++
		return nil
	})
	t.end(id, count)
	if err != nil {
		return nil, nil, err
	}
	scs, err := ss.Scenarios()
	if err != nil {
		return nil, nil, err
	}
	probed, err := probeScenarios(t, z.single, scs, deadline)
	if err != nil {
		return nil, nil, err
	}
	probed["engine.shard_imbalance"] = z.ref.Stats.Imbalance
	probed["engine.handoff_ops"] = float64(z.ref.Stats.HandoffOps)
	return probed, nil, nil
}

// layers reports the straggler, the slowest shard's time per unit, and
// the merge: per unit, RunSharded's time less the split's expansion and
// shard pool, which repeat the rest of its work. The merge, stitched
// checks included, joins the self-time table as engine.merge, so
// check.wall_share counts it in the unit's time (but not as check).
func (z *zipfBench) layers(spans []span, self map[string]time.Duration) map[string]float64 {
	whole, split := map[int]time.Duration{}, map[int]time.Duration{}
	for _, s := range spans {
		if s.Unit < 0 || s.End < 0 {
			continue
		}
		switch s.Name {
		case refSpan:
			whole[s.Unit] += s.dur()
		case "engine.expand", "engine.shards":
			split[s.Unit] += s.dur()
		}
	}
	var merges []float64
	for u, w := range whole {
		self["engine.merge"] += w - split[u]
		merges = append(merges, ms(w-split[u]))
	}
	return map[string]float64{
		"engine.slowest_shard_ms": medianSpan(spans, "engine.shard", maxDur),
		"engine.merge_ms":         median(merges),
	}
}
