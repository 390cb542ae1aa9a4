package sched

import (
	"reflect"
	"testing"

	"neu10/internal/compiler"
	"neu10/internal/model"
)

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// runReplay runs the scenario with replay on and off and returns both
// Results plus the events replayed with it on.
func runReplay(t *testing.T, cfg Config, specs ...TenantSpec) (on, off *Result, replayed uint64) {
	t.Helper()
	s, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if on, err = s.Run(); err != nil {
		t.Fatal(err)
	}
	replayHook = func(Config, TenantSpec) bool { return false }
	defer func() { replayHook = nil }()
	if off, err = Run(cfg, specs); err != nil {
		t.Fatal(err)
	}
	return on, off, s.replayed
}

// repeatedGraph is a solo workload whose operators repeat: three
// shapes, each used several times with shared groups, as Compile
// emits them for identical layers.
func repeatedGraph() *compiler.CompiledGraph {
	a, b, c := meOp(3, 3000, 900), veOp(2500), meOp(2, 1200, 2600)
	var ops []compiler.CompiledOp
	for i := 0; i < 6; i++ {
		ops = append(ops, a, b, c)
	}
	return synth(compiler.ISANeu, ops...)
}

// TestReplayMatchesSimulation: a solo NeuNH run replays every repeated
// operator and still produces the Result full simulation does, with
// the same event count.
func TestReplayMatchesSimulation(t *testing.T) {
	spec := TenantSpec{Name: "r", Graph: repeatedGraph(), MEs: 2, VEs: 2}
	on, off, replayed := runReplay(t, Config{Core: tpu(), Policy: NeuNH, Requests: 3}, spec)
	if !reflect.DeepEqual(on, off) {
		t.Fatalf("replay changed the Result:\n on  %+v\n off %+v", *on, *off)
	}
	if replayed == 0 || replayed >= on.Events {
		t.Fatalf("replayed %d of %d events, want some but not all", replayed, on.Events)
	}
}

// TestReplayNotUsedOutsideSoloNeuNH: runs that do not qualify — two
// tenants, another policy, sampling, open-loop arrivals — simulate
// every event.
func TestReplayNotUsedOutsideSoloNeuNH(t *testing.T) {
	spec := TenantSpec{Name: "r", Graph: repeatedGraph(), MEs: 2, VEs: 2}
	other := TenantSpec{Name: "o", Graph: repeatedGraph(), MEs: 2, VEs: 2}
	open := spec
	open.ArrivalRate = 1e5
	for name, c := range map[string]struct {
		cfg   Config
		specs []TenantSpec
	}{
		"two tenants": {Config{Core: tpu(), Policy: NeuNH, Requests: 2}, []TenantSpec{spec, other}},
		"Neu10":       {Config{Core: tpu(), Policy: Neu10, Requests: 2}, []TenantSpec{spec}},
		"sampling":    {Config{Core: tpu(), Policy: NeuNH, Requests: 2, SampleEvery: 1000}, []TenantSpec{spec}},
		"open loop":   {Config{Core: tpu(), Policy: NeuNH, Requests: 2, Seed: 3}, []TenantSpec{open}},
	} {
		s, err := New(c.cfg, c.specs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if s.replayed != 0 {
			t.Errorf("%s: %d events replayed", name, s.replayed)
		}
	}
}

// TestReplayMaxCyclesStop: a MaxCycles stop that lands inside a
// repeated operator — strictly inside an event, or exactly on the end
// of one — gives the same Result with and without replay: the operator
// it lands in is simulated, not replayed.
func TestReplayMaxCyclesStop(t *testing.T) {
	spec := TenantSpec{Name: "r", Graph: repeatedGraph(), MEs: 2, VEs: 2}
	full := mustRun(t, Config{Core: tpu(), Policy: NeuNH, Requests: 1}, spec)
	end := full.DurationCycles // exactly the end of request 1's last event
	for _, maxCycles := range []float64{end * 0.31, end * 0.5, end * 0.83, end, end * 1.4} {
		cfg := Config{Core: tpu(), Policy: NeuNH, Requests: 3, MaxCycles: maxCycles}
		on, off, replayed := runReplay(t, cfg, spec)
		if !reflect.DeepEqual(on, off) {
			t.Errorf("MaxCycles %v: Result differs with replay on and off:\n on  %+v\n off %+v", maxCycles, *on, *off)
		}
		if on.DurationCycles >= maxCycles {
			t.Errorf("MaxCycles %v: run reached %v", maxCycles, on.DurationCycles)
		}
		if replayed == 0 {
			t.Errorf("MaxCycles %v: nothing replayed before the stop", maxCycles)
		}
	}
}

// TestSoloLLMDecodeAllocBudget is the allocation budget for one solo
// cost-model run of a 40-layer LLaMA decode (batch 8, 512 cached
// tokens) on a 2ME+2VE vNPU. It measured 34 objects per run (Go 1.24,
// amd64), all of them run setup and result collection; the budget
// leaves 40% headroom for other Go versions. Tape storage comes from a
// pool, so a run with replay on allocates no more than one without.
func TestSoloLLMDecodeAllocBudget(t *testing.T) {
	core := tpu()
	sub := core.WithEUs(2, 2).WithHBMBandwidth(core.HBMBwBytes * 4 / float64(core.MEs+core.VEs))
	comp, err := compiler.New(sub)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := comp.Compile(model.LLMDecode(8, 512), compiler.ISANeu)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Core: sub, Policy: NeuNH, Requests: 1}
	specs := []TenantSpec{{Name: "decode", Graph: cg, MEs: 2, VEs: 2}}
	run := func() {
		if _, err := Run(cfg, specs); err != nil {
			t.Fatal(err)
		}
	}
	run()
	on := testing.AllocsPerRun(50, run)
	replayHook = func(Config, TenantSpec) bool { return false }
	off := testing.AllocsPerRun(50, run)
	replayHook = nil
	const budget = 48
	if on > budget {
		t.Errorf("solo LLaMA decode run allocates %.0f objects, want ≤ %d", on, budget)
	}
	if on > off && !raceEnabled {
		t.Errorf("replay adds allocations: %.0f objects per run with it, %.0f without", on, off)
	}
}
