package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"neu10/internal/arch"
	"neu10/internal/compiler"
	"neu10/internal/experiments"
	"neu10/internal/model"
	"neu10/internal/sched"
	"neu10/internal/workload"
)

// The two layer probes run only in the traced run. They call the
// compiler and the fluid simulator directly, on fixed inputs written
// down here and in README.md, so a change to either layer shows in
// isolation from the experiment memos and the cost database.

// utopsPerRequest counts the µTOps one request of a compiled graph
// issues.
func utopsPerRequest(cg *compiler.CompiledGraph) int {
	n := 0
	for i := range cg.Ops {
		for _, g := range cg.Ops[i].Groups {
			n += len(g.UTops)
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// schedProbe replays the paper pair grid — workload.Pairs() ×
// experiments.Policies(), 36 simulations — exactly as the pair study
// does: each vNPU gets half the core's engines, closed loop with the
// default requests per tenant, no timeline sampling.
func schedProbe(tr *tracer, out metricValues) error {
	core := arch.TPUv4Like()
	requests := experiments.DefaultOptions().Requests
	tr.begin("probe.sched", "")
	defer tr.end()

	type sim struct {
		op     string
		policy sched.Mode
		specs  []sched.TenantSpec
	}
	var sims []sim
	t0 := time.Now()
	tr.begin("workload.NewCompiled", "")
	comp, err := workload.NewCompiled(core)
	tr.end()
	if err != nil {
		return err
	}
	for _, p := range workload.Pairs() {
		for _, pol := range experiments.Policies() {
			id := p.Name() + "/" + pol.String()
			tr.begin("workload.Compiled.Tenants", id)
			specs, err := comp.Tenants(p, pol, core.MEs/2, core.VEs/2)
			tr.end()
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			sims = append(sims, sim{id, pol, specs})
		}
	}
	compile := time.Since(t0)

	var simMs []float64
	var utops, cycles float64
	var simTime time.Duration
	a0 := mallocs()
	for _, s := range sims {
		cfg := sched.Config{Core: core, Policy: s.policy, Requests: requests}
		tr.begin("sched.Run", s.op)
		t := time.Now()
		res, err := sched.Run(cfg, s.specs)
		d := time.Since(t)
		tr.end()
		if err != nil {
			return fmt.Errorf("%s: %w", s.op, err)
		}
		simTime += d
		simMs = append(simMs, ms(d))
		cycles += res.DurationCycles
		for i, tres := range res.Tenants {
			utops += float64(utopsPerRequest(s.specs[i].Graph) * tres.Requests)
		}
	}
	allocs := mallocs() - a0

	sort.Float64s(simMs)
	n := len(simMs)
	out["sched.sims"] = float64(n)
	out["sched.sim_ms_p50"] = quantile(simMs, 0.5)
	// The highest percentile with ten samples beyond it: rank n-10.
	out["sched.sim_ms_p72"] = simMs[n-11]
	out["sched.utops_per_s"] = utops / simTime.Seconds()
	out["sched.sim_cycles_per_s"] = cycles / simTime.Seconds()
	out["sched.allocs_per_sim"] = float64(allocs) / float64(n)
	out["compiler.pair_compile_ms"] = ms(compile)
	return nil
}

// llmShape is one invocation CostDB prices for the serving LLM.
type llmShape struct {
	phase              string // decode | prefill | chunk
	batch, seq, ctxLen int
}

// llmShapes is the cost-model probe's fixed shape set: decode at three
// batch widths × three contexts, whole-prompt prefill, and 64-token
// chunked prefill behind cached context.
func llmShapes() []llmShape {
	var s []llmShape
	for _, b := range []int{1, 4, 16} {
		for _, ctx := range []int{128, 512, 2048} {
			s = append(s, llmShape{"decode", b, ctx, 0})
		}
	}
	for _, b := range []int{1, 4} {
		for _, p := range []int{64, 256} {
			s = append(s, llmShape{"prefill", b, p, 0})
		}
		for _, ctx := range []int{128, 512} {
			s = append(s, llmShape{"chunk", b, 64, ctx})
		}
	}
	return s
}

// build returns the shape's graph builder and its span name.
func (s llmShape) build() (string, func() *compiler.Graph) {
	switch s.phase {
	case "decode":
		return "model.LLMDecode", func() *compiler.Graph { return model.LLMDecode(s.batch, s.seq) }
	case "prefill":
		return "model.LLMPrefill", func() *compiler.Graph { return model.LLMPrefill(s.batch, s.seq) }
	}
	return "model.LLMPrefillChunk", func() *compiler.Graph { return model.LLMPrefillChunk(s.batch, s.seq, s.ctxLen) }
}

// costModelProbe follows CostDB's own recipe for every shape: build the
// phase graph, compile it for NeuISA on a 2ME+2VE sub-core with its
// proportional HBM bandwidth, and run it solo under NeuNH.
func costModelProbe(tr *tracer, out metricValues) error {
	const nm, nv = 2, 2
	core := arch.TPUv4Like()
	sub := core.WithEUs(nm, nv).WithHBMBandwidth(core.HBMBwBytes * float64(nm+nv) / float64(core.MEs+core.VEs))
	tr.begin("probe.costmodel", "")
	defer tr.end()
	tr.begin("compiler.New", "")
	comp, err := compiler.New(sub)
	tr.end()
	if err != nil {
		return err
	}
	var graph, compile, solo time.Duration
	var ops, allocs uint64
	var utops float64
	for _, s := range llmShapes() {
		id := fmt.Sprintf("%s/b%d/s%d/c%d", s.phase, s.batch, s.seq, s.ctxLen)
		name, build := s.build()
		tr.begin(name, id)
		t := time.Now()
		g := build()
		graph += time.Since(t)
		tr.end()
		ops += uint64(len(g.Ops))

		a0 := mallocs()
		tr.begin("compiler.Compiler.Compile", id)
		t = time.Now()
		cg, err := comp.Compile(g, compiler.ISANeu)
		compile += time.Since(t)
		tr.end()
		allocs += mallocs() - a0
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}

		tr.begin("sched.Run", id)
		t = time.Now()
		res, err := sched.Run(sched.Config{Core: sub, Policy: sched.NeuNH, Requests: 1},
			[]sched.TenantSpec{{Name: id, Graph: cg, MEs: nm, VEs: nv}})
		solo += time.Since(t)
		tr.end()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		utops += float64(utopsPerRequest(cg) * res.Tenants[0].Requests)
	}
	out["model.llm_graph_ms"] = ms(graph)
	out["model.llm_ops"] = float64(ops)
	out["compiler.llm_compile_ms"] = ms(compile)
	out["compiler.llm_allocs"] = float64(allocs)
	out["sched.llm_solo_ms"] = ms(solo)
	out["sched.llm_solo_utops_per_s"] = utops / solo.Seconds()
	return nil
}
