package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"neu10/internal/experiments"
)

type benchmarkJSON struct {
	Workloads []struct{ Name string }               `json:"workloads"`
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON checks that every workload BENCHMARK.json
// names exists and every metric it names is defined here with the same
// unit and direction, and that a run emits each of them with its unit
// or fails.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, err := newBench(w.Name, params{}); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		kind string
		defs []metricDef
		json []struct{ Name, Unit, Better string }
	}{{"end_to_end", endToEnd, bj.EndToEnd}, {"per_layer", perLayer, bj.PerLayer}} {
		var want, got []string
		vals := metricValues{}
		for _, d := range c.defs {
			want = append(want, d.name+" "+d.unit+" "+d.better)
			vals[d.name] = 1
		}
		for _, m := range c.json {
			got = append(got, m.Name+" "+m.Unit+" "+m.Better)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s in BENCHMARK.json:\n%s\nwant:\n%s", c.kind, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		out, err := vals.emit(c.defs)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range c.json {
			if e, ok := out[m.Name]; !ok || e.Unit != m.Unit || e.Unit == "" {
				t.Errorf("%s: emitted %+v, want unit %q", m.Name, e, m.Unit)
			}
		}
		delete(vals, c.defs[0].name)
		if _, err := vals.emit(c.defs); err == nil {
			t.Errorf("%s: emit accepted a run missing %s", c.kind, c.defs[0].name)
		}
	}
}

// TestDigestsCoverHeldOut checks the recorded table parses and covers
// the default and held-out inputs of every workload.
func TestDigestsCoverHeldOut(t *testing.T) {
	table, err := parseDigests(recordedDigests)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"figures r8": len(figureIDs()), "figures r4": len(figureIDs()),
		"serve-cold s1": len(coldLegs(1)), "serve-cold s7919": len(coldLegs(1)),
		"fleet-obs s1": 1 + len(exportIDs), "fleet-obs s7919": 1 + len(exportIDs),
	}
	for key, n := range want {
		if len(table[key]) != n {
			t.Errorf("%s: %d digests, want %d", key, len(table[key]), n)
		}
	}
}

// TestGateCatchesPerturbedTable regenerates fig2 and checks that its
// recorded digest passes while a one-byte change fails, both against
// the recorded table and in the pass-to-pass mode used for unrecorded
// seeds.
func TestGateCatchesPerturbedTable(t *testing.T) {
	table, err := parseDigests(recordedDigests)
	if err != nil {
		t.Fatal(err)
	}
	r, err := experiments.NewRunner(experiments.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run("fig2")
	if err != nil {
		t.Fatal(err)
	}
	good := res.Table()
	bad := []byte(good)
	bad[len(bad)/2] ^= 1

	g := newGate(table, "figures", "r8")
	if !g.recorded() {
		t.Fatal("figures r8 has no recorded digests")
	}
	if n := g.check([]op{{id: "fig2", digest: sha(good)}}, false); n != 0 {
		t.Fatalf("recorded fig2 table failed the gate: %v", g.failures)
	}
	if n := g.check([]op{{id: "fig2", digest: sha(string(bad))}}, false); n != 1 {
		t.Errorf("perturbed fig2 table: %d failures, want 1", n)
	}
	if n := g.check([]op{{id: "fig2", digest: sha(good)}}, true); n != len(figureIDs())-1 {
		t.Errorf("a pass missing every other figure: %d failures, want %d", n, len(figureIDs())-1)
	}

	g = newGate(table, "figures", "r3")
	if g.recorded() {
		t.Fatal("figures r3 unexpectedly recorded")
	}
	g.check([]op{{id: "fig2", digest: sha(good)}}, true)
	if n := g.check([]op{{id: "fig2", digest: sha(string(bad))}}, true); n != 1 {
		t.Errorf("perturbed second pass: %d failures, want 1", n)
	}
}

// TestSpansNest runs a traced serve-cold set-up and pass and checks the
// span tree: every span closes inside its parent, self times are ≥ 0,
// the top-level spans cover no more than the pass, and the legs match
// their recorded digests.
func TestSpansNest(t *testing.T) {
	table, err := parseDigests(recordedDigests)
	if err != nil {
		t.Fatal(err)
	}
	p := params{seed: 1, requests: 8, workers: 2}
	b, err := newBench("serve-cold", p)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tr.begin("bench.setup", "serve-cold")
	if err := b.setup(tr); err != nil {
		t.Fatal(err)
	}
	tr.end()
	tr.begin("bench.pass", "serve-cold")
	ops := b.pass(tr)
	root := tr.end()
	if n := newGate(table, "serve-cold", variant("serve-cold", p)).check(ops, true); n != 0 {
		t.Errorf("%d legs failed the gate", n)
	}
	if len(tr.open) != 0 {
		t.Fatalf("%d spans left open", len(tr.open))
	}
	var selfSum float64
	for i, s := range tr.spans {
		if s.end < s.start {
			t.Errorf("span %d %s ends before it starts", i, s.name)
		}
		if s.parent >= 0 {
			p := tr.spans[s.parent]
			if s.start < p.start || s.end > p.end {
				t.Errorf("span %d %s [%v, %v] escapes parent %s [%v, %v]", i, s.name, s.start, s.end, p.name, p.start, p.end)
			}
		}
		if tr.self(i) < 0 {
			t.Errorf("span %d %s: self time %v < 0", i, s.name, tr.self(i))
		}
		if s.parent == root || i == root {
			selfSum += tr.self(i).Seconds()
		}
	}
	if got := len(tr.children(root)); got != 2*len(coldLegs(1)) {
		t.Errorf("pass has %d top-level spans, want %d", got, 2*len(coldLegs(1)))
	}
	if c, d := tr.covered(root), tr.spans[root].dur(); c > d {
		t.Errorf("children cover %v of a %v pass", c, d)
	}
	// The legs have no child spans, so the pass's self time plus theirs
	// is the pass.
	if d := tr.spans[root].dur().Seconds(); selfSum < d*0.999 || selfSum > d*1.001 {
		t.Errorf("self times sum to %v s, pass took %v s", selfSum, d)
	}
	var sb strings.Builder
	if err := tr.writeChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []map[string]any }
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil || len(doc.TraceEvents) != len(tr.spans) {
		t.Errorf("chrome export: %d events, err %v", len(doc.TraceEvents), err)
	}

	var off *tracer
	off.begin("x", "")
	if off.end() != -1 {
		t.Error("nil tracer recorded a span")
	}
}
