package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric, its unit, which direction is better and,
// for a per-layer metric, the end-to-end metric (on which workload) it
// should move. The layer is the name's prefix. README.md carries the
// same table; the tests check the definitions against BENCHMARK.json.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are reported by untraced runs (--trace 0), host-side.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", ""},
	{"setup_s", "s", "lower", ""},
	{"alloc_mb", "MB", "lower", ""},
	{"allocs_k", "k", "lower", ""},
	{"peak_rss_mb", "MB", "lower", ""},
}

// bigFigures are the figure ids whose regeneration takes ≥10 ms on a
// fresh Runner; the rest (including the fig20-22/table3 views of
// fig19's memo) fold into experiments.small_ms.
var bigFigures = []string{
	"fig16", "fig19", "fig23", "fig24", "fig25", "fig26", "fig27",
	"ablation-harvest", "ablation-preempt", "slo", "cluster",
}

// perLayer are reported by the traced run (--trace 1).
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, id := range bigFigures {
		defs = append(defs, metricDef{"experiments." + id + "_ms", "ms", "lower", "figures.wall_s"})
	}
	const (
		figCold  = "figures.wall_s, serve-cold.wall_s"
		cold     = "serve-cold.wall_s"
		coldSet  = "serve-cold.wall_s, fleet-obs.setup_s"
		fleet    = "fleet-obs.wall_s"
		fleetMem = "fleet-obs.wall_s, fleet-obs.alloc_mb, fleet-obs.peak_rss_mb"
	)
	return append(defs, []metricDef{
		{"experiments.small_ms", "ms", "lower", "figures.wall_s"},
		{"sched.sims", "count", "higher", figCold},
		{"sched.sim_ms_p50", "ms", "lower", figCold},
		{"sched.sim_ms_p72", "ms", "lower", figCold},
		{"sched.utops_per_s", "1/s", "higher", figCold},
		{"sched.sim_cycles_per_s", "1/s", "higher", figCold},
		{"sched.allocs_per_sim", "count", "lower", figCold},
		{"compiler.pair_compile_ms", "ms", "lower", figCold},
		{"costdb.entries", "count", "lower", coldSet},
		{"costdb.fill_ms", "ms", "lower", coldSet},
		{"costdb.ms_per_entry", "ms", "lower", coldSet},
		{"serve.warm_ms", "ms", "lower", coldSet},
		{"model.llm_graph_ms", "ms", "lower", cold},
		{"model.llm_ops", "count", "lower", cold},
		{"compiler.llm_compile_ms", "ms", "lower", cold},
		{"compiler.llm_allocs", "count", "lower", cold},
		{"sched.llm_solo_ms", "ms", "lower", cold},
		{"sched.llm_solo_utops_per_s", "1/s", "higher", cold},
		{"serve.loop_ms", "ms", "lower", fleet},
		{"serve.requests", "count", "higher", fleet},
		{"serve.loop_ns_per_req", "ns", "lower", fleet},
		{"obs.record_ms", "ms", "lower", fleetMem},
		{"obs.record_mb", "MB", "lower", fleetMem},
		{"obs.trace_events", "count", "lower", fleetMem},
		{"obs.ledger_reqs", "count", "higher", fleetMem},
		{"obs.chrome_ms", "ms", "lower", fleetMem},
		{"obs.chrome_mb", "MB", "lower", fleetMem},
		{"obs.timeline_csv_ms", "ms", "lower", fleetMem},
		{"obs.ledger_csv_ms", "ms", "lower", fleetMem},
		{"trace.overhead_pct", "%", "lower", "the traced workload's wall_s"},
		{"trace.coverage_pct", "%", "higher", "the traced workload's wall_s"},
	}...)
}()

// metricValues collects a run's measurements by metric name.
type metricValues map[string]float64

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit pairs every defined metric with its value and unit, failing if
// the run did not measure one.
func (v metricValues) emit(defs []metricDef) (map[string]metricJSON, error) {
	out := make(map[string]metricJSON, len(defs))
	var missing []string
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricJSON{Value: x, Unit: d.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}

// quantile is the linear-interpolation quantile of sorted xs (the
// "inclusive" method of Python's statistics.quantiles).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
