package compiler_test

import (
	"fmt"
	"reflect"
	"testing"

	"neu10/internal/arch"
	"neu10/internal/compiler"
	"neu10/internal/model"
	"neu10/internal/workload"
)

// compileReference lowers every operator on its own, with no sharing
// between operators of the same shape: the graph Compile must equal.
func compileReference(c *compiler.Compiler, core arch.CoreConfig, g *compiler.Graph, kind compiler.ISAKind) *compiler.CompiledGraph {
	out := &compiler.CompiledGraph{
		Model:     g.Model,
		BatchSize: g.BatchSize,
		Target:    core,
		ISA:       kind,
		Footprint: g.HBMFootprint,
	}
	for i := range g.Ops {
		out.Ops = append(out.Ops, c.LowerOp(&g.Ops[i], kind))
	}
	return out
}

// TestCompileMatchesPerOpLowering: sharing one lowering between the
// operators of the same shape must not change the compiled graph, for
// every registry workload and the serving LLM's phase graphs, under both
// ISAs, on the whole core and on a 2ME+2VE vNPU.
func TestCompileMatchesPerOpLowering(t *testing.T) {
	type graph struct {
		name string
		g    *compiler.Graph
	}
	var graphs []graph
	for _, name := range model.Names() {
		for _, batch := range []int{workload.BatchFor(name), 1} {
			g, err := model.Build(name, batch)
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, graph{fmt.Sprintf("%s/%d", name, batch), g})
		}
	}
	for _, s := range []struct{ batch, seq, ctx int }{{1, 16, 0}, {8, 512, 0}, {4, 64, 256}, {32, 1024, 1024}} {
		graphs = append(graphs,
			graph{fmt.Sprintf("prefill/%d/%d", s.batch, s.seq), model.LLMPrefill(s.batch, s.seq)},
			graph{fmt.Sprintf("chunk/%d/%d+%d", s.batch, s.seq, s.ctx), model.LLMPrefillChunk(s.batch, s.seq, s.ctx)},
			graph{fmt.Sprintf("decode/%d/%d", s.batch, s.seq), model.LLMDecode(s.batch, s.seq)})
	}
	for _, core := range []arch.CoreConfig{arch.TPUv4Like(), arch.TPUv4Like().WithEUs(2, 2)} {
		comp, err := compiler.New(core)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []compiler.ISAKind{compiler.ISANeu, compiler.ISAVLIW} {
			for _, w := range graphs {
				got, err := comp.Compile(w.g, kind)
				if err != nil {
					t.Fatalf("%s %s %dME: %v", w.name, kind, core.MEs, err)
				}
				if want := compileReference(comp, core, w.g, kind); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s %dME: compiled graph differs from per-op lowering", w.name, kind, core.MEs)
				}
			}
		}
	}
}

// TestCompileSharesLayerLowering: the 40 identical layers of an LLM
// phase graph share one lowering per operator, so layer 0's and layer
// 39's qkv projections point at one Groups backing array.
func TestCompileSharesLayerLowering(t *testing.T) {
	comp, err := compiler.New(arch.TPUv4Like())
	if err != nil {
		t.Fatal(err)
	}
	cg, err := comp.Compile(model.LLMDecode(8, 512), compiler.ISANeu)
	if err != nil {
		t.Fatal(err)
	}
	first, last := &cg.Ops[0], &cg.Ops[39*9]
	if first.Name != "qkv.0" || last.Name != "qkv.39" {
		t.Fatalf("ops %q and %q, want qkv.0 and qkv.39", first.Name, last.Name)
	}
	if &first.Groups[0] != &last.Groups[0] {
		t.Error("qkv.0 and qkv.39 were lowered separately; want one shared lowering")
	}
}

// TestCompileAllocBudget is the allocation budget for building and
// compiling one serving decode graph on a vNPU, the unit of work the
// serving cost model repeats per shape bucket. Measured: 53 allocations
// (2059 when every layer was lowered and named on its own). The bound
// leaves about 2× headroom for map growth across Go versions; lowering
// each of the 361 operators again would cost over a thousand.
func TestCompileAllocBudget(t *testing.T) {
	comp, err := compiler.New(arch.TPUv4Like().WithEUs(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := comp.Compile(model.LLMDecode(8, 512), compiler.ISANeu); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Fatalf("LLMDecode(8, 512) build + compile allocates %.0f objects, want ≤ 100 (per-layer lowering or naming regression?)", allocs)
	}
}
