// Command benchmark is the repository's end-to-end benchmark. It runs one
// workload from a seed for a fixed wall-clock budget, checks every verdict
// the system returns, and prints its metrics as the last line of standard
// output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones a user of the system
// sees (throughput of verified operations, model-time latency,
// allocations, memory, set-up time). With -trace 1 the run alternates
// traced units with span recording off and on, the latter recording a
// span around every call into a layer (workload, keyspace, engine, sim,
// check, types), then ends with a probe phase that attributes
// allocations, replays histories through the data types and runs live
// clusters (live); the metrics are then per layer. The spans are kept in
// memory and written to .bench_build/ when the run ends.
//
// The benchmark times the layers from outside, through their exported
// functions, so it needs no change to the code it measures. See README.md
// in this directory for the workloads, the metric definitions and which
// end-to-end metric each layer metric should move.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload grid-verified --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// why is the reason the workload is in the benchmark.
	why string
	// legacy names the cmd/tbbench trajectory entry the workload mirrors.
	legacy string
	// setup builds the workload's inputs from the seed: scenarios,
	// schedules and plans, everything a unit needs before it runs.
	setup func(seed int64) (bench, error)
}

var workloads = []workloadDef{
	{
		name:   "grid-verified",
		why:    "many small verified clusters: sim and core replicas do most of the work, checking the rest; the bypass workload for keyed-store changes; its traced run also times live clusters",
		legacy: "engine/large-grid",
		setup:  setupGrid,
	},
	{
		name:   "zipf-migrate",
		why:    "Zipf keyed store over 12 shards with a mid-run hot-key migration: the checker and the dictionary type dominate, and one shard straggles",
		legacy: "engine/zipf-store",
		setup:  setupZipf,
	},
}

// bench is one workload's prepared inputs.
type bench interface {
	// unit runs one unit of work untraced and checks its verdicts.
	unit() unitOut
	// traced runs one unit of work as calls into the layers, recording a
	// span around each call under a root span for the unit.
	traced(t *tracer, unit int) unitOut
	// probe runs, until the deadline, the measurements a traced unit
	// cannot make: per-layer allocations (sequentially, so the process
	// counters attribute them) and calls the untraced unit does not make
	// on its own. Timed calls are recorded as spans outside any unit.
	// Probes that reach a verdict return it as units to judge.
	probe(t *tracer, deadline time.Time) (map[string]float64, []unitOut, error)
	// layers derives the workload's own per-layer metrics from the spans
	// of the traced units, and may add to their self times.
	layers(spans []span, self map[string]time.Duration) map[string]float64
}

// unitOut is what one unit of work reports.
type unitOut struct {
	// ops counts the client operations attempted; failed those that were
	// pending or belong to a unit whose verdict is wrong.
	ops, failed int
	wall        time.Duration
	// latSum and latN give the mean model-time client latency (ms);
	// latPct holds its valid percentiles, for the run information.
	latSum        float64
	latN          int
	latPct        map[string]float64
	deterministic bool
	// fingerprint hashes every model-time outcome of the unit: verdicts,
	// latencies, states. Units on the same input must agree on it.
	fingerprint uint64
	// input indexes the unit's input among those a run cycles through.
	input int
	// stats are per-unit layer observations, reported as their median.
	stats map[string]float64
	err   error
}

// rate is the unit's verified operations per wall second.
func (u unitOut) rate() float64 { return float64(u.ops-u.failed) / u.wall.Seconds() }

// Set-up is timed setupReps times, and for at least setupMin, and
// reported as the median.
const (
	setupReps = 5
	setupMin  = time.Second
)

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 20, "wall-clock seconds to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	flag.Parse()

	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload {grid-verified|zipf-migrate} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	res, info, err := run(*def, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", def.name, err)
		os.Exit(2)
	}
	line, err := json.Marshal(info)
	if err == nil {
		fmt.Println(string(line))
	}
	if line, err = json.Marshal(res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is printed before the result: what the numbers were measured
// on, the workload's provenance, the sample counts behind each
// percentile, and every wrong verdict.
type runInfo struct {
	Workload   string         `json:"workload"`
	Why        string         `json:"why"`
	Legacy     string         `json:"legacy_tbbench"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	GoVersion  string         `json:"go"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	Units      int            `json:"units"`
	Samples    map[string]int `json:"samples,omitempty"`
	// Model-time latency percentiles of the first unit: deterministic
	// per seed, so the determinism check guards them.
	ModelLatencyMS map[string]float64 `json:"model_latency_ms,omitempty"`
	// SelfTimeMS is each layer's self time over the traced units.
	SelfTimeMS map[string]float64 `json:"self_time_ms,omitempty"`
	TopLayer   string             `json:"top_self_time_layer,omitempty"`
	// CPUSeconds is the process's CPU time while measuring; StealTicks
	// the host's steal time meanwhile (1/100 s each), which explains
	// slow runs on a shared machine.
	CPUSeconds float64  `json:"cpu_s,omitempty"`
	StealTicks int      `json:"steal_ticks,omitempty"`
	Errors     []string `json:"errors,omitempty"`
}

// run sets the workload up several times, then measures it for budget.
func run(def workloadDef, seed int64, budget time.Duration, traced bool) (result, runInfo, error) {
	info := runInfo{
		Workload:   def.name,
		Why:        def.why,
		Legacy:     def.legacy,
		Seed:       seed,
		Trace:      traced,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Samples:    map[string]int{},
	}
	var b bench
	var setupS []float64
	for start := time.Now(); len(setupS) < setupReps || time.Since(start) < setupMin; {
		t0 := time.Now()
		var err error
		if b, err = def.setup(seed); err != nil {
			return result{}, info, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	// One untimed warm-up unit, judged like every other.
	warm := b.unit()
	j := judge{ref: warm, prints: map[int]uint64{}}
	j.check(warm, "warm-up unit")

	values := map[string]float64{}
	var err error
	if traced {
		err = measureTraced(b, budget, &j, values, &info, def.name, seed)
	} else {
		err = measure(b, budget, &j, values, &info)
		values["setup_s"] = median(setupS)
		values["peak_rss_mb"] = peakRSSMB()
		info.Samples["setup_s"] = len(setupS)
	}
	if err != nil {
		return result{}, info, err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		for _, d := range defs {
			if _, ok := values[d.name]; !ok {
				values[d.name] = 0 // the layer is not on this workload's path
			}
		}
	}
	metrics, err := collect(defs, values)
	if err != nil {
		return result{}, info, err
	}
	info.Errors = j.errs
	return result{Correct: len(j.errs) == 0, Attempted: j.attempted, Failed: j.failed, Metrics: metrics}, info, nil
}

// judge accumulates verdicts across units: wrong answers, failed
// operations, and the determinism check, which holds every simulated
// unit to the model-time outcome of the first unit on the same input.
type judge struct {
	ref               unitOut
	prints            map[int]uint64
	attempted, failed int
	errs              []string
}

func (j *judge) check(u unitOut, what string) {
	if u.err != nil {
		j.errs = append(j.errs, fmt.Sprintf("%s: %v", what, u.err))
	}
	if !u.deterministic {
		return
	}
	if want, ok := j.prints[u.input]; !ok {
		j.prints[u.input] = u.fingerprint
	} else if u.fingerprint != want {
		j.errs = append(j.errs, fmt.Sprintf("%s: model-time outcome %x differs from %x, an earlier unit's on the same input", what, u.fingerprint, want))
	}
}

func (j *judge) count(u unitOut, what string) {
	j.check(u, what)
	j.attempted += u.ops
	j.failed += u.failed
}

// units runs fn until the deadline, at least once.
func units(deadline time.Time, fn func(i int) unitOut) []unitOut {
	var out []unitOut
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		out = append(out, fn(i))
	}
	return out
}

// measure is the untraced run behind the end-to-end metrics.
func measure(b bench, budget time.Duration, j *judge, values map[string]float64, info *runInfo) error {
	runtime.GC()
	before, cpu, steal := readAllocs(), cpuSeconds(), stealTicks()
	us := units(time.Now().Add(budget), func(int) unitOut { return b.unit() })
	alloc := before.since()
	info.CPUSeconds, info.StealTicks = cpuSeconds()-cpu, stealTicks()-steal

	var rates []float64
	var latSum float64
	var latN, ops int
	seen := map[int]bool{}
	for i, u := range us {
		j.count(u, fmt.Sprintf("unit %d", i))
		rates = append(rates, u.rate())
		ops += u.ops
		// A simulated input's model time is the same on every unit, so
		// each input counts once and the mean stays a function of the seed.
		if !u.deterministic || !seen[u.input] {
			seen[u.input] = true
			latSum += u.latSum
			latN += u.latN
		}
	}
	if latN == 0 || ops == 0 {
		return errors.New("no operations completed")
	}
	values["verified_ops_per_s"] = median(rates)
	values["model_latency_ms_mean"] = latSum / float64(latN)
	values["allocs_per_op"] = float64(alloc.objects) / float64(ops)
	values["alloc_bytes_per_op"] = float64(alloc.bytes) / float64(ops)

	info.Units = len(us)
	info.Samples["verified_ops_per_s"] = len(rates)
	info.Samples["model_latency_ms"] = latN
	info.ModelLatencyMS = j.ref.latPct
	return nil
}

// measureTraced is the traced run behind the per-layer metrics. Traced
// units take the first 4/5 of the budget, alternately with span
// recording off and on, so trace.overhead_ratio compares equal work on
// the same heap and host; probes take the rest.
func measureTraced(b bench, budget time.Duration, j *judge, values map[string]float64, info *runInfo, name string, seed int64) error {
	start := time.Now()
	off, t := newTracer(false), newTracer(true)
	var unrecorded, traced []unitOut
	for len(traced) == 0 || time.Now().Before(start.Add(budget*4/5)) {
		unrecorded = append(unrecorded, b.traced(off, len(unrecorded)))
		traced = append(traced, b.traced(t, len(traced)))
	}
	probed, probeUnits, err := b.probe(t, start.Add(budget))
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	for i, u := range probeUnits {
		j.count(u, fmt.Sprintf("probe run %d", i))
	}
	var baseRates, tracedRates []float64
	for i, u := range unrecorded {
		j.count(u, fmt.Sprintf("unrecorded unit %d", i))
		baseRates = append(baseRates, u.rate())
	}
	stats := map[string][]float64{}
	for i, u := range traced {
		j.count(u, fmt.Sprintf("traced unit %d", i))
		tracedRates = append(tracedRates, u.rate())
		for k, v := range u.stats {
			stats[k] = append(stats[k], v)
		}
	}
	for k, vs := range stats {
		values[k] = median(vs)
	}
	for k, v := range probed {
		values[k] = v
	}
	spans := t.snapshot()

	// Span-derived layer costs shared by every workload. A layer's cost
	// comes from the traced units where they make the call, else from
	// the probes, whose spans sit outside any unit; self time covers the
	// traced units alone.
	var inUnits, inProbes []span
	for _, s := range spans {
		if s.Unit >= 0 {
			inUnits = append(inUnits, s)
		} else {
			inProbes = append(inProbes, s)
		}
	}
	unitSum, unitOps := durations(inUnits)
	probeSum, probeOps := durations(inProbes)
	perOp := func(name string) float64 {
		if unitOps[name] > 0 {
			return float64(unitSum[name].Nanoseconds()) / float64(unitOps[name])
		}
		if probeOps[name] > 0 {
			return float64(probeSum[name].Nanoseconds()) / float64(probeOps[name])
		}
		return 0
	}
	values["check.ns_per_op"] = perOp("check")
	values["sim.run_ns_per_op"] = perOp("sim.run")
	values["types.apply_ns_per_op"] = perOp("types.apply")
	values["types.encode_ns_per_op"] = perOp("types.encode")
	values["workload.schedule_ns_per_op"] = perOp("workload.schedule")
	values["keyspace.stream_ns_per_op"] = perOp("keyspace.stream")
	values["engine.aggregate_ns_per_result"] = perOp("engine.aggregate")
	values["engine.expand_ms"] = meanMS(spans, "engine.expand")

	self := selfTimes(inUnits)
	// A reference span times the engine's own path beside the split; its
	// work is attributed to the layers, and the workload's layers add what
	// the split cannot time on its own.
	delete(self, refSpan)
	for k, v := range b.layers(spans, self) {
		values[k] = v
	}
	var total time.Duration
	info.SelfTimeMS = map[string]float64{}
	for k, v := range self {
		total += v
		info.SelfTimeMS[k] = ms(v)
	}
	if total > 0 {
		values["check.wall_share"] = float64(self["check"]) / float64(total)
	}
	info.TopLayer = topLayer(self)
	values["trace.overhead_ratio"] = median(baseRates) / median(tracedRates)

	info.Units = len(traced)
	info.Samples["unrecorded_units"] = len(unrecorded)
	info.Samples["traced_units"] = len(traced)
	info.Samples["spans"] = len(spans)
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := writeSpans(path, spans); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: spans not written: %v\n", err)
	}
	return nil
}

// refSpan names the span around a traced unit's call into the engine's
// own path, kept for its verdict and its time beside the layer split.
const refSpan = "engine.run_sharded"

// topLayer names the span with the largest self time, ties broken by name.
func topLayer(self map[string]time.Duration) string {
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	top := ""
	for _, k := range names {
		if top == "" || self[k] > self[top] {
			top = k
		}
	}
	return top
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
