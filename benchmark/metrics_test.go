package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	var d dist
	for v := 1; v <= 1000; v++ {
		d.add(float64(v), 1)
	}
	v, beyond, err := d.percentile(99)
	if err != nil || v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v (beyond %d, err %v), want 990 with 10 beyond", v, beyond, err)
	}
	if v, beyond, err := d.percentile(50); err != nil || v != 500 || beyond != 500 {
		t.Fatalf("p50 of 1..1000 = %v (beyond %d, err %v), want 500 with 500 beyond", v, beyond, err)
	}

	var short dist
	for v := 1; v <= 999; v++ {
		short.add(float64(v), 1)
	}
	if _, beyond, err := short.percentile(99); err == nil || beyond != 9 {
		t.Fatalf("p99 of 999 samples: beyond %d, err %v; want an error with 9 beyond", beyond, err)
	}
	var empty dist
	if _, _, err := empty.percentile(50); err == nil {
		t.Fatal("percentile of no samples must fail")
	}
}

func TestPercentileCountsWeights(t *testing.T) {
	var d dist
	d.add(5, 90)
	d.add(1, 10) // out of order: percentile sorts
	d.add(9, 0)  // weightless samples are dropped
	if d.n != 100 {
		t.Fatalf("n = %d, want 100", d.n)
	}
	if v, beyond, err := d.percentile(10); err != nil || v != 1 || beyond != 90 {
		t.Fatalf("p10 = %v (beyond %d, err %v), want 1 with 90 beyond", v, beyond, err)
	}
	if v, _, err := d.percentile(11); err != nil || v != 5 {
		t.Fatalf("p11 = %v (err %v), want 5", v, err)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func sp(name string, parent int, start, end time.Duration) span {
	return span{Name: name, Parent: parent, Unit: 0, Start: start, End: end}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		sp("unit", -1, 0, 100),   // 0
		sp("sim.run", 0, 10, 30), // 1: overlaps span 2 on [20, 30]
		sp("check", 0, 20, 50),   // 2
		sp("types", 1, 12, 15),   // 3: nested in 1
		sp("check", 0, 90, 120),  // 4: runs past its parent's end
		sp("open", 0, 60, -1),    // 5: never closed, ignored
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		// 100 minus the union [10, 50] ∪ [90, 100] of its closed children.
		"unit":    50,
		"sim.run": 17,
		"check":   30 + 30,
		"types":   3,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span must not count")
	}
}

func TestCoveredMergesTouchingIntervals(t *testing.T) {
	parent := sp("p", -1, 0, 10)
	kids := []span{sp("a", 0, 0, 4), sp("b", 0, 4, 6), sp("c", 0, 8, 9)}
	if got := covered(parent, kids); got != 7 {
		t.Fatalf("covered = %d, want 7", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Fatalf("covered by no children = %d, want 0", got)
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	tr := newTracer(true)
	root := tr.begin("unit", noSpan, 3)
	child := tr.begin("check", root, 3)
	if d := tr.end(child, 7); d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	tr.end(root, 7)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root.id || spans[1].Ops != 7 || spans[0].Unit != 3 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
		t.Fatalf("child %+v not inside parent %+v", spans[1], spans[0])
	}
}

func TestTracerWithoutRecordingStillTimes(t *testing.T) {
	tr := newTracer(false)
	root := tr.begin("unit", noSpan, 0)
	child := tr.begin("check", root, 0)
	time.Sleep(time.Millisecond)
	if d := tr.end(child, 1); d < time.Millisecond {
		t.Fatalf("child duration %v, want at least 1ms", d)
	}
	if d := tr.end(root, 1); d < time.Millisecond {
		t.Fatalf("root duration %v, want at least 1ms", d)
	}
	if spans := tr.snapshot(); len(spans) != 0 {
		t.Fatalf("recorded %d spans, want none", len(spans))
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"setup_s", "check.ns_per_op", "p99", "9lives", "a-b.c_d", strings.Repeat("x", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "é", "a:b", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "ops/s", "count", "%", "B"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "m s", strings.Repeat("u", 17)} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true, want false", bad)
		}
	}
	if _, err := collect([]metricDef{{"bad name", "ms"}}, map[string]float64{"bad name": 1}); err == nil {
		t.Error("collect accepted a malformed name")
	}
	if _, err := collect([]metricDef{{"x", "ms"}}, map[string]float64{}); err == nil {
		t.Error("collect accepted a missing value")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metrics and workloads the
// program prints in step with the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
		Unit string `json:"unit"`
	}
	var bj struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var listed []named
	for _, w := range workloads {
		listed = append(listed, named{Name: w.name, Why: w.why})
	}
	same := func(what string, got []named, want []named) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, the program %+v", what, i, got[i], want[i])
			}
		}
	}
	asNamed := func(defs []metricDef) []named {
		out := make([]named, len(defs))
		for i, d := range defs {
			if !validName(d.name) || !validUnit(d.unit) {
				t.Errorf("malformed metric %q (unit %q)", d.name, d.unit)
			}
			out[i] = named{Name: d.name, Unit: d.unit}
		}
		return out
	}
	same("workloads", bj.Workloads, listed)
	same("end_to_end", bj.EndToEnd, asNamed(endToEnd))
	same("per_layer", bj.PerLayer, asNamed(perLayer))
}
