package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"neu10/internal/arch"
	"neu10/internal/experiments"
	"neu10/internal/obs"
	"neu10/internal/serve"
	"neu10/internal/workload"
)

// bench is one workload. setup builds the fresh state one timed pass
// consumes (timed as setup_s); pass runs it (timed as wall_s) and
// returns its operations for the correctness gate. Both record spans
// on tr around every call into the program; tr is nil when untraced.
type bench interface {
	setup(tr *tracer) error
	pass(tr *tracer) []op
	// layers runs after a traced pass: it derives the workload's
	// per-layer metrics from the pass's spans plus any extra calls it
	// needs, and returns those calls' operations for the gate.
	layers(tr *tracer, out metricValues) []op
}

// params are a run's inputs, all derived from the command line.
type params struct {
	seed     uint64
	requests int // requests per tenant for the figures
	workers  int
}

// variant names the digest-table key of a workload's inputs.
func variant(name string, p params) string {
	if name == "figures" {
		return fmt.Sprintf("r%d", p.requests)
	}
	return fmt.Sprintf("s%d", p.seed)
}

var workloadNames = []string{"figures", "serve-cold", "fleet-obs"}

func newBench(name string, p params) (bench, error) {
	switch name {
	case "figures":
		return &figuresBench{p: p}, nil
	case "serve-cold":
		return &serveColdBench{p: p}, nil
	case "fleet-obs":
		return &fleetObsBench{p: p}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// ---- figures: every paper figure and extension study ----

// figureIDs is every non-serve experiment id, in paper order.
func figureIDs() []string {
	var ids []string
	for _, id := range experiments.IDs() {
		if !strings.HasPrefix(id, "serve-") {
			ids = append(ids, id)
		}
	}
	return ids
}

type figuresBench struct {
	p      params
	runner *experiments.Runner
}

func (b *figuresBench) setup(tr *tracer) error {
	opts := experiments.DefaultOptions()
	opts.Requests = b.p.requests
	opts.Workers = b.p.workers
	tr.begin("experiments.NewRunner", "")
	r, err := experiments.NewRunner(opts)
	tr.end()
	b.runner = r
	return err
}

func (b *figuresBench) pass(tr *tracer) []op {
	var ops []op
	for _, id := range figureIDs() {
		tr.begin("experiments.Runner.Run", id)
		res, err := b.runner.Run(id)
		tr.end()
		if err != nil {
			ops = append(ops, op{id: id, err: err})
			continue
		}
		tr.begin("experiments.Result.Table", id)
		table := res.Table()
		tr.end()
		ops = append(ops, op{id: id, digest: sha(table)})
	}
	return ops
}

func (b *figuresBench) layers(tr *tracer, out metricValues) []op {
	big := map[string]bool{}
	for _, id := range bigFigures {
		big[id] = true
	}
	out["experiments.small_ms"] = 0
	for _, id := range figureIDs() {
		d := ms(tr.sumByName("experiments.Runner.Run", id))
		if big[id] {
			out["experiments."+id+"_ms"] = d
		} else {
			out["experiments.small_ms"] += d
		}
	}
	return nil
}

// ---- serve-cold: LLaMA serving legs on a cold cost database ----

// sessionTrace is the multi-turn session shape of the shipped paged-KV
// scenarios: every request re-submits its conversation so far, and all
// sessions share one system prompt.
var sessionTrace = workload.LLMTrace{
	PromptMin: 16, PromptMean: 32, PromptMax: 64,
	OutputMin: 4, OutputMean: 12, OutputMax: 32,
	Sessions: 10, SharedPrefixTokens: 96, MaxSessionTokens: 640,
}

// coldLegs mirrors the shipped LLM scenarios: continuous batching on
// reserve KV, paged KV with the radix prefix cache under both eviction
// prices on a session trace, and disaggregated 1P+1D with chunked
// prefill.
func coldLegs(seed uint64) []serve.Config {
	mk := func(label string, rate float64, llm *serve.LLMConfig) serve.Config {
		return serve.Config{
			Scenario: label, Core: arch.TPUv4Like(), Cores: 2,
			Router: serve.LeastLoaded, DurationSec: 4.0, Seed: seed,
			Tenants: []serve.TenantConfig{{
				Name: "assistant", Model: "LLaMA", RatePerSec: rate, EUs: 4,
				MaxBatch: 16, QueueCap: 64, SLOMs: 3000,
				InitialReplicas: 2, MaxReplicas: 2, LLM: llm,
			}},
		}
	}
	paged := func(evict string) *serve.LLMConfig {
		return &serve.LLMConfig{KVCapTokens: 1536, KVPolicy: serve.KVPaged, KVEvict: evict, Trace: sessionTrace}
	}
	return []serve.Config{
		mk("cold/continuous-reserve", 20, &serve.LLMConfig{
			KVCapTokens: 768, KVPolicy: serve.KVReserve,
			Trace: workload.LLMTrace{
				PromptMin: 16, PromptMean: 48, PromptMax: 128,
				OutputMin: 2, OutputMean: 12, OutputMax: 48,
			},
		}),
		mk("cold/paged-recompute", 14, paged(serve.KVEvictRecompute)),
		mk("cold/paged-swap", 14, paged(serve.KVEvictSwap)),
		mk("cold/disagg-1p1d", 14, &serve.LLMConfig{
			Trace: workload.LLMTrace{
				PromptMin: 16, PromptMean: 32, PromptMax: 64,
				PromptLongFrac: 0.25, PromptLongMin: 128, PromptLongMean: 192, PromptLongMax: 256,
				OutputMin: 6, OutputMean: 12, OutputMax: 24,
			},
			Disagg: &serve.DisaggConfig{PrefillReplicas: 1, DecodeReplicas: 1, ChunkTokens: 64},
		}),
	}
}

type serveColdBench struct {
	p    params
	legs []serve.Config
	db   *serve.CostDB
}

func (b *serveColdBench) setup(tr *tracer) error {
	b.legs = coldLegs(b.p.seed)
	tr.begin("serve.NewCostDB", "")
	b.db = serve.NewCostDB(arch.TPUv4Like())
	tr.end()
	return nil
}

func (b *serveColdBench) pass(tr *tracer) []op {
	ops := make([]op, 0, len(b.legs))
	for _, cfg := range b.legs {
		_, o := runLeg(tr, cfg, b.db)
		ops = append(ops, o)
	}
	return ops
}

// layers re-runs the legs on the now-warm database: the difference is
// what filling the cost database cost.
func (b *serveColdBench) layers(tr *tracer, out metricValues) []op {
	legTime := func() time.Duration {
		var d time.Duration
		for _, cfg := range b.legs {
			d += tr.sumByName("serve.Run", cfg.Scenario)
		}
		return d
	}
	cold := legTime()
	var ops []op
	for _, cfg := range b.legs {
		_, o := runLeg(tr, cfg, b.db)
		ops = append(ops, o)
	}
	warm := legTime() - cold
	entries := b.db.Entries()
	out["costdb.entries"] = float64(entries)
	out["costdb.fill_ms"] = ms(cold - warm)
	out["costdb.ms_per_entry"] = ms(cold-warm) / float64(entries)
	out["serve.warm_ms"] = ms(warm)
	return ops
}

// runLeg runs one serve leg and gates its report table.
func runLeg(tr *tracer, cfg serve.Config, db *serve.CostDB) (*serve.Report, op) {
	tr.begin("serve.Run", cfg.Scenario)
	rep, err := serve.Run(cfg, db)
	tr.end()
	if err != nil {
		return nil, op{id: cfg.Scenario, err: err}
	}
	tr.begin("serve.Report.Table", cfg.Scenario)
	table := rep.Table()
	tr.end()
	return rep, op{id: cfg.Scenario, digest: sha(table), err: checkReport(rep)}
}

// checkReport asserts request conservation on a serve report.
func checkReport(rep *serve.Report) error {
	for _, t := range rep.Tenants {
		if t.Completed < 1 || t.Completed+t.Rejected > t.Arrivals {
			return fmt.Errorf("tenant %s: %d completed + %d rejected of %d arrivals",
				t.Name, t.Completed, t.Rejected, t.Arrivals)
		}
		if t.SLOAttainment < 0 || t.SLOAttainment > 1 {
			return fmt.Errorf("tenant %s: attainment %v", t.Name, t.SLOAttainment)
		}
	}
	return nil
}

// ---- fleet-obs: a multi-tenant fleet with full observability ----

// fleetConfig is a paged-KV LLaMA session tenant beside two high-rate
// dense tenants, autoscaled on a 4-pNPU fleet.
func fleetConfig(seed uint64, o *serve.ObsConfig) serve.Config {
	return serve.Config{
		Scenario: "fleet", Core: arch.TPUv4Like(), Cores: 4,
		Router: serve.LeastLoaded, DurationSec: 2.0, Seed: seed,
		Autoscale: true, Obs: o,
		Tenants: []serve.TenantConfig{
			{Name: "assistant", Model: "LLaMA", RatePerSec: 14, EUs: 4,
				MaxBatch: 16, QueueCap: 64, SLOMs: 3000, Priority: serve.Interactive,
				InitialReplicas: 1, MaxReplicas: 2,
				LLM: &serve.LLMConfig{KVCapTokens: 1536, KVPolicy: serve.KVPaged,
					KVEvict: serve.KVEvictRecompute, Trace: sessionTrace}},
			{Name: "vision", Model: "RtNt", RatePerSec: 250, EUs: 4, MaxBatch: 8,
				InitialReplicas: 1, MaxReplicas: 3},
			{Name: "rank", Model: "DLRM", RatePerSec: 24000, EUs: 2, MaxBatch: 16,
				SLOFactor: 4, Priority: serve.Batch, InitialReplicas: 1, MaxReplicas: 3},
		},
	}
}

var fullObs = &serve.ObsConfig{Trace: true, Timelines: true, Attrib: true}

type fleetObsBench struct {
	p           params
	db          *serve.CostDB
	offTable    string // the set-up pass's obs-off report table
	rep         *serve.Report
	chromeBytes int64 // size of the last pass's Chrome trace export
}

// setup fills a fresh cost database with one obs-off pass, so the
// timed pass does no costing.
func (b *fleetObsBench) setup(tr *tracer) error {
	b.rep = nil // the last pass's trace and ledger are garbage now
	tr.begin("serve.NewCostDB", "")
	b.db = serve.NewCostDB(arch.TPUv4Like())
	tr.end()
	tr.begin("serve.Run", "fill")
	rep, err := serve.Run(fleetConfig(b.p.seed, nil), b.db)
	tr.end()
	if err != nil {
		return fmt.Errorf("fill pass: %w", err)
	}
	b.offTable = rep.Table()
	return nil
}

var exportIDs = [3]string{"chrome", "timeline_csv", "ledger_csv"}

func (b *fleetObsBench) pass(tr *tracer) []op {
	rep, o := runLeg(tr, fleetConfig(b.p.seed, fullObs), b.db)
	b.rep = rep
	if rep == nil {
		return []op{o}
	}
	if o.err == nil {
		o.err = checkObs(rep, b.offTable)
	}
	ops := []op{o}
	writers := [3]func(*digestWriter) error{
		func(w *digestWriter) error { return obs.WriteChromeAll(w, []*obs.Tracer{rep.Trace}) },
		func(w *digestWriter) error { return obs.WriteCSVAll(w, []*obs.TimelineSet{rep.Timelines}) },
		func(w *digestWriter) error { return obs.WriteLedgerCSVAll(w, []*obs.Ledger{rep.Ledger}) },
	}
	calls := [3]string{"obs.WriteChromeAll", "obs.WriteCSVAll", "obs.WriteLedgerCSVAll"}
	for i, write := range writers {
		w := newDigestWriter()
		tr.begin(calls[i], exportIDs[i])
		err := write(w)
		tr.end()
		if i == 0 {
			b.chromeBytes = w.n
		}
		ops = append(ops, op{id: exportIDs[i], digest: w.sum(), err: err})
	}
	return ops
}

// checkObs asserts that observation changed no report byte and that
// the attribution ledger conserved every cycle.
func checkObs(rep *serve.Report, offTable string) error {
	if rep.Trace == nil || rep.Timelines == nil || rep.Ledger == nil {
		return fmt.Errorf("obs payload missing")
	}
	if rep.Table() != offTable {
		return fmt.Errorf("obs-on report differs from the obs-off set-up pass")
	}
	if v, open := rep.Ledger.Violations(), rep.Ledger.Open(); v != 0 || open != 0 {
		return fmt.Errorf("ledger: %d violations, %d open requests", v, open)
	}
	return nil
}

// layers splits the fleet pass into the serve event loop and its
// observability: the same fleet runs again on the warm database with
// obs off and then on, each measured alone.
func (b *fleetObsBench) layers(tr *tracer, out metricValues) []op {
	rep := b.rep
	requests := 0
	for _, t := range rep.Tenants {
		requests += t.Completed
	}
	out["serve.requests"] = float64(requests)
	out["obs.trace_events"] = float64(rep.Trace.Len())
	out["obs.ledger_reqs"] = float64(len(rep.Ledger.Completed()))
	out["obs.chrome_ms"] = ms(tr.sumByName("obs.WriteChromeAll", ""))
	out["obs.chrome_mb"] = float64(b.chromeBytes) / 1e6
	out["obs.timeline_csv_ms"] = ms(tr.sumByName("obs.WriteCSVAll", ""))
	out["obs.ledger_csv_ms"] = ms(tr.sumByName("obs.WriteLedgerCSVAll", ""))
	b.rep = nil

	var ops []op
	measure := func(o *serve.ObsConfig) (time.Duration, uint64) {
		debug.FreeOSMemory()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		before := tr.sumByName("serve.Run", "")
		_, op := runLeg(tr, fleetConfig(b.p.seed, o), b.db)
		d := tr.sumByName("serve.Run", "") - before
		runtime.ReadMemStats(&m1)
		ops = append(ops, op)
		return d, m1.TotalAlloc - m0.TotalAlloc
	}
	off, offBytes := measure(nil)
	on, onBytes := measure(fullObs)
	out["serve.loop_ms"] = ms(off)
	out["serve.loop_ns_per_req"] = float64(off) / float64(requests)
	out["obs.record_ms"] = ms(on - off)
	out["obs.record_mb"] = (float64(onBytes) - float64(offBytes)) / 1e6
	return ops
}
