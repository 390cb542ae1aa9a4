package sched_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"neu10/internal/arch"
	"neu10/internal/compiler"
	"neu10/internal/experiments"
	"neu10/internal/model"
	"neu10/internal/sched"
	"neu10/internal/serve"
	"neu10/internal/workload"
)

// replayCase is one solo run the oracle checks.
type replayCase struct {
	name string
	cfg  sched.Config
	spec sched.TenantSpec
}

// checkReplay runs c at Requests 1 and 3 with replay on and off and
// requires the whole Results to be deeply equal. It returns the events
// replayed with replay on.
func checkReplay(t *testing.T, c replayCase) uint64 {
	t.Helper()
	var replayed uint64
	for _, req := range []int{1, 3} {
		cfg := c.cfg
		cfg.Requests = req
		specs := []sched.TenantSpec{c.spec}
		on, n, errOn := sched.RunReplayCounted(cfg, specs)
		restore := sched.SetReplayHook(func(sched.Config, sched.TenantSpec) bool { return false })
		off, m, errOff := sched.RunReplayCounted(cfg, specs)
		restore()
		if fmt.Sprint(errOn) != fmt.Sprint(errOff) {
			t.Errorf("%s, %d requests: error %v with replay, %v without", c.name, req, errOn, errOff)
			continue
		}
		if m != 0 {
			t.Errorf("%s: %d events replayed with replay off", c.name, m)
		}
		if !reflect.DeepEqual(on, off) {
			t.Errorf("%s, %d requests: Result differs with replay on and off:\n on  %+v\n off %+v", c.name, req, on, off)
		}
		replayed += n
	}
	return replayed
}

// subCore is CostDB's vNPU carve-out: nm MEs and nv VEs with their
// proportional share of HBM bandwidth.
func subCore(nm, nv int) arch.CoreConfig {
	core := arch.TPUv4Like()
	frac := float64(nm+nv) / float64(core.MEs+core.VEs)
	return core.WithEUs(nm, nv).WithHBMBandwidth(core.HBMBwBytes * frac)
}

// soloCase compiles g for NeuISA on an nm+nv vNPU, as CostDB does.
func soloCase(t *testing.T, name string, g *compiler.Graph, nm, nv int) replayCase {
	t.Helper()
	sub := subCore(nm, nv)
	comp, err := compiler.New(sub)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := comp.Compile(g, compiler.ISANeu)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return replayCase{name: fmt.Sprintf("%s on %dME+%dVE", name, nm, nv),
		cfg:  sched.Config{Core: sub, Policy: sched.NeuNH},
		spec: sched.TenantSpec{Name: name, Graph: cg, MEs: nm, VEs: nv}}
}

// TestReplayOracleLLMBuckets: LLM decode, prefill and chunked prefill
// at bucket shapes on four vNPU shapes give the same Result with replay
// on and off, and replay does take over most of each run.
func TestReplayOracleLLMBuckets(t *testing.T) {
	graphs := map[string]func() *compiler.Graph{}
	for _, b := range []int{1, 4, 16} {
		for _, ctx := range []int{128, 512, 2048} {
			graphs[fmt.Sprintf("decode b%d ctx %d", b, ctx)] = func() *compiler.Graph { return model.LLMDecode(b, ctx) }
		}
	}
	for _, b := range []int{1, 4} {
		for _, p := range []int{64, 256} {
			graphs[fmt.Sprintf("prefill b%d seq %d", b, p)] = func() *compiler.Graph { return model.LLMPrefill(b, p) }
		}
		for _, ctx := range []int{128, 512} {
			graphs[fmt.Sprintf("chunk b%d 64+%d", b, ctx)] = func() *compiler.Graph { return model.LLMPrefillChunk(b, 64, ctx) }
		}
	}
	for name, build := range graphs {
		for _, sh := range [][2]int{{1, 1}, {2, 2}, {3, 1}, {4, 4}} {
			c := soloCase(t, name, build(), sh[0], sh[1])
			if checkReplay(t, c) == 0 {
				t.Errorf("%s: nothing replayed", c.name)
			}
		}
	}
}

// TestReplayOracleRegistryModels: every registry model run solo gives
// the same Result with replay on and off.
func TestReplayOracleRegistryModels(t *testing.T) {
	for _, name := range model.Names() {
		g, err := model.Build(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range [][2]int{{2, 2}, {4, 4}} {
			checkReplay(t, soloCase(t, name, g, sh[0], sh[1]))
		}
	}
}

// TestReplayOracleServeCostDB: every cost-model measurement the shipped
// serving scenarios and the benchmark's serve-cold legs make gives the
// same Result with replay on and off. The replay hook captures each
// qualifying run as the scenarios fill their cost databases; the
// captured runs are then re-checked at Requests 1 and 3.
func TestReplayOracleServeCostDB(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every serving scenario")
	}
	var mu sync.Mutex
	var cases []replayCase
	restore := sched.SetReplayHook(func(cfg sched.Config, spec sched.TenantSpec) bool {
		mu.Lock()
		defer mu.Unlock()
		cases = append(cases, replayCase{
			name: fmt.Sprintf("%s batch %d (%d ops) on %dME+%dVE", spec.Name, spec.Graph.BatchSize, len(spec.Graph.Ops), spec.MEs, spec.VEs),
			cfg:  cfg, spec: spec})
		return true
	})
	r, err := experiments.NewRunner(experiments.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range experiments.IDs() {
		if !strings.HasPrefix(id, "serve-") {
			continue
		}
		if _, err := r.Run(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	db := serve.NewCostDB(arch.TPUv4Like())
	for _, seed := range []uint64{1, 7919} {
		for _, cfg := range coldLegs(seed) {
			if _, err := serve.Run(cfg, db); err != nil {
				t.Fatalf("%s: %v", cfg.Scenario, err)
			}
		}
	}
	restore()
	if len(cases) == 0 {
		t.Fatal("no cost-model run captured")
	}
	var replayed uint64
	for _, c := range cases {
		replayed += checkReplay(t, c)
	}
	t.Logf("%d cost-model runs checked, %d events replayed", len(cases), replayed)
	if replayed == 0 {
		t.Error("nothing replayed")
	}
}

// sessionTrace and coldLegs mirror the benchmark's serve-cold legs
// (perfbench/workloads.go): the shipped LLM scenarios on a cold cost
// database — continuous batching on reserve KV, paged KV under both
// eviction prices, and disaggregated 1P+1D with chunked prefill.
var sessionTrace = workload.LLMTrace{
	PromptMin: 16, PromptMean: 32, PromptMax: 64,
	OutputMin: 4, OutputMean: 12, OutputMax: 32,
	Sessions: 10, SharedPrefixTokens: 96, MaxSessionTokens: 640,
}

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
