package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, printed with
// --trace 0. BENCHMARK.json lists the same names, units and directions.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"verified_ops_per_s", "ops/s"},
	{"model_latency_ms_mean", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics, printed with --trace 1. A layer
// that is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	{"check.ns_per_op", "ns"},
	{"check.allocs_per_op", "count"},
	{"check.wall_share", "ratio"},
	{"check.states_explored", "count"},
	{"types.apply_ns_per_op", "ns"},
	{"types.encode_ns_per_op", "ns"},
	{"sim.run_ns_per_op", "ns"},
	{"sim.allocs_per_op", "count"},
	{"workload.schedule_ns_per_op", "ns"},
	{"keyspace.stream_ns_per_op", "ns"},
	{"engine.expand_ms", "ms"},
	{"engine.merge_ms", "ms"},
	{"engine.slowest_shard_ms", "ms"},
	{"engine.shard_imbalance", "ratio"},
	{"engine.handoff_ops", "count"},
	{"engine.aggregate_ns_per_result", "ns"},
	{"live.estimate_d_ratio", "ratio"},
	{"live.warmup_ms", "ms"},
	{"live.retunes", "count"},
	{"live.msgs_per_op", "count"},
	{"live.send_ns_p99", "ns"},
	{"live.op_latency_ms_p50", "ms"},
	{"live.op_latency_ms_p99", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal metric or workload name: a
// letter or digit, then at most 63 letters, digits, '_', '.' or '-'.
func validName(s string) bool { return nameRe.MatchString(s) }

// validUnit reports whether s is a legal metric unit.
func validUnit(s string) bool { return unitRe.MatchString(s) }

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect builds the metrics object for defs from values, refusing a
// missing value, a non-finite value or a malformed name or unit.
func collect(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		if !validName(d.name) || !validUnit(d.unit) {
			return nil, fmt.Errorf("malformed metric %q (unit %q)", d.name, d.unit)
		}
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported.
const minBeyond = 10

// sample is one observation standing for weight equal observations.
type sample struct {
	v float64
	w int
}

// dist is a weighted sample set for exact nearest-rank percentiles.
type dist struct {
	s []sample
	n int
}

func (d *dist) add(v float64, w int) {
	if w <= 0 {
		return
	}
	d.s = append(d.s, sample{v, w})
	d.n += w
}

func (d *dist) addAll(o []sample) {
	for _, s := range o {
		d.add(s.v, s.w)
	}
}

// percentile returns the nearest-rank p-th percentile (the ⌈p·n/100⌉-th
// smallest observation) and the number of observations beyond it. The
// error reports a percentile with fewer than minBeyond observations
// beyond it, which is too thin to report.
func (d *dist) percentile(p float64) (v float64, beyond int, err error) {
	if d.n == 0 {
		return 0, 0, fmt.Errorf("p%g of no samples", p)
	}
	sort.Slice(d.s, func(i, j int) bool { return d.s[i].v < d.s[j].v })
	rank := int(math.Ceil(p * float64(d.n) / 100))
	if rank < 1 {
		rank = 1
	}
	seen := 0
	for _, s := range d.s {
		seen += s.w
		if seen >= rank {
			v = s.v
			break
		}
	}
	beyond = d.n - rank
	if beyond < minBeyond {
		return v, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, want ≥ %d", p, d.n, beyond, minBeyond)
	}
	return v, beyond, nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
