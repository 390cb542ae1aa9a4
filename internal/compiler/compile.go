package compiler

import (
	"fmt"

	"neu10/internal/arch"
	"neu10/internal/isa"
)

// UTopSpec is the performance-simulator skeleton of one µTOp: how many
// busy cycles it needs on each engine class and how much HBM traffic it
// carries. The functional encoding of µTOps lives in internal/isa; the
// performance experiments schedule these specs (paper §III-G: the
// simulator replays µTOp traces).
type UTopSpec struct {
	Kind     isa.UTopKind
	MECycles uint64 // busy cycles on the one ME this µTOp binds (0 for VE µTOps)
	VECycles uint64 // VE work carried by this µTOp (epilogue for ME µTOps)
	HBMBytes int64
}

// GroupSpec is one µTOp group: its µTOps may run concurrently; groups of
// an operator execute in order.
type GroupSpec struct {
	UTops []UTopSpec
}

// CompiledOp is an operator lowered to µTOp groups.
type CompiledOp struct {
	Name string
	Kind OpKind
	// Groups run sequentially; µTOps within a group concurrently.
	// Compile lowers each distinct operator shape once, so the groups
	// may alias those of other ops of the same graph: they are
	// read-only.
	Groups []GroupSpec
	// ReductionSplit marks the NeuISA-overhead case (paper §III-D): the
	// operator was partitioned on the reduction dimension, so the final
	// summation runs as a separate VE µTOp group and cannot pipeline with
	// the ME µTOps.
	ReductionSplit bool
}

// TotalME returns the summed ME cycles across all µTOps.
func (c *CompiledOp) TotalME() uint64 {
	var t uint64
	for _, g := range c.Groups {
		for _, u := range g.UTops {
			t += u.MECycles
		}
	}
	return t
}

// TotalVE returns the summed VE cycles across all µTOps.
func (c *CompiledOp) TotalVE() uint64 {
	var t uint64
	for _, g := range c.Groups {
		for _, u := range g.UTops {
			t += u.VECycles
		}
	}
	return t
}

// TotalHBM returns the summed HBM bytes across all µTOps.
func (c *CompiledOp) TotalHBM() int64 {
	var t int64
	for _, g := range c.Groups {
		for _, u := range g.UTops {
			t += u.HBMBytes
		}
	}
	return t
}

// CompiledGraph is a whole workload lowered to µTOp groups.
type CompiledGraph struct {
	Model     string
	BatchSize int
	Target    arch.CoreConfig
	ISA       ISAKind
	Ops       []CompiledOp
	Footprint int64
}

// ISAKind distinguishes the two compilation targets.
type ISAKind int

const (
	// ISANeu is NeuISA: operators split into per-ME µTOps that hardware
	// binds to engines at runtime.
	ISANeu ISAKind = iota
	// ISAVLIW is the traditional coupled VLIW target: the operator's ME
	// count is baked in at compile time.
	ISAVLIW
)

func (k ISAKind) String() string {
	if k == ISANeu {
		return "NeuISA"
	}
	return "VLIW"
}

// Compiler lowers operator graphs for a target core.
type Compiler struct {
	cm   *CostModel
	core arch.CoreConfig
}

// New returns a compiler for the core configuration.
func New(core arch.CoreConfig) (*Compiler, error) {
	if err := core.Validate(); err != nil {
		return nil, err
	}
	return &Compiler{cm: NewCostModel(core), core: core}, nil
}

// CostModel exposes the compiler's cost model (the allocator reuses it).
func (c *Compiler) CostModel() *CostModel { return c.cm }

// Compile lowers a graph. For ISANeu, each MatMul is partitioned into up
// to core.MEs ME µTOps along its independent output tiles; when the
// output is too small to split, the reduction dimension is split instead
// and a separate VE-µTOp summation group is appended (the Fig. 16
// overhead case). Vector operators become single VE µTOps. For ISAVLIW,
// the operator keeps one group whose ME µTOps must launch together
// (enforced by the scheduler, not the data) and reduction summation
// pipelines with the MEs, matching the paper's observation that the
// traditional ISA can pipeline what NeuISA must serialize.
func (c *Compiler) Compile(g *Graph, kind ISAKind) (*CompiledGraph, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	out := &CompiledGraph{
		Model:     g.Model,
		BatchSize: g.BatchSize,
		Target:    c.core,
		ISA:       kind,
		Footprint: g.HBMFootprint,
		Ops:       make([]CompiledOp, 0, len(g.Ops)),
	}
	// Lowering never reads an Op's name, so the operators of repeated
	// layers share one lowering: key by the Op with Name cleared (any
	// future shape field joins the key automatically).
	lowered := map[Op]CompiledOp{}
	for i := range g.Ops {
		shape := g.Ops[i]
		shape.Name = ""
		co, ok := lowered[shape]
		if !ok {
			co = c.lowerOp(&shape, kind)
			lowered[shape] = co
		}
		co.Name = g.Ops[i].Name
		out.Ops = append(out.Ops, co)
	}
	return out, nil
}

// lowerOp lowers one operator to its µTOp groups.
func (c *Compiler) lowerOp(op *Op, kind ISAKind) CompiledOp {
	cost := c.cm.Cost(op)
	if op.Kind.IsME() {
		return c.compileMatMul(op, cost, kind)
	}
	return CompiledOp{
		Name: op.Name,
		Kind: op.Kind,
		Groups: []GroupSpec{{UTops: []UTopSpec{{
			Kind:     isa.VEUTop,
			VECycles: cost.VECycles,
			HBMBytes: cost.HBMBytes,
		}}}},
	}
}

func (c *Compiler) compileMatMul(op *Op, cost OpCost, kind ISAKind) CompiledOp {
	dim := c.core.SystolicDim
	nx := c.core.MEs
	// Independent output tiles (M×N plane) can go to different MEs with
	// no cross-ME dependency.
	outTiles := ceilDiv(op.M, dim) * ceilDiv(op.N, dim)
	kTiles := ceilDiv(op.K, dim)

	parts := outTiles
	if parts > nx {
		parts = nx
	}
	reduction := false
	if outTiles < nx && kTiles > 1 {
		// Not enough output parallelism: split the reduction dimension to
		// occupy all MEs (paper §III-D).
		parts = outTiles * kTiles
		if parts > nx {
			parts = nx
		}
		reduction = parts > outTiles
	}
	if parts < 1 {
		parts = 1
	}

	me := splitCycles(cost.MECycles, parts)
	hbm := splitBytes(cost.HBMBytes, parts)

	co := CompiledOp{Name: op.Name, Kind: op.Kind}
	switch {
	case kind == ISANeu && reduction:
		// ME µTOps produce partials; a separate VE µTOp group sums them.
		// The VE aggregation cannot pipeline with the MEs (the NeuISA
		// overhead): all VE cycles land in the second group.
		g0 := GroupSpec{}
		for p := 0; p < parts; p++ {
			g0.UTops = append(g0.UTops, UTopSpec{Kind: isa.MEUTop, MECycles: me[p], HBMBytes: hbm[p]})
		}
		g1 := GroupSpec{UTops: []UTopSpec{{Kind: isa.VEUTop, VECycles: cost.VECycles}}}
		co.Groups = []GroupSpec{g0, g1}
		co.ReductionSplit = true
	default:
		// Output-parallel (or VLIW): the VE epilogue pipelines inside the
		// ME µTOps, split evenly.
		ve := splitCycles(cost.VECycles, parts)
		g0 := GroupSpec{}
		for p := 0; p < parts; p++ {
			g0.UTops = append(g0.UTops, UTopSpec{
				Kind:     isa.MEUTop,
				MECycles: me[p],
				VECycles: ve[p],
				HBMBytes: hbm[p],
			})
		}
		co.Groups = []GroupSpec{g0}
	}
	return co
}

// splitCycles divides total into n near-equal shares that sum exactly.
func splitCycles(total uint64, n int) []uint64 {
	out := make([]uint64, n)
	base := total / uint64(n)
	rem := total % uint64(n)
	for i := range out {
		out[i] = base
		if uint64(i) < rem {
			out[i]++
		}
	}
	return out
}

func splitBytes(total int64, n int) []int64 {
	out := make([]int64, n)
	base := total / int64(n)
	rem := total % int64(n)
	for i := range out {
		out[i] = base
		if int64(i) < rem {
			out[i]++
		}
	}
	return out
}

// Validate checks structural invariants of a compiled graph: cycle
// conservation against the cost model and group shapes (≤ MEs ME µTOps
// and ≤ 1 VE µTOp per group).
func (cg *CompiledGraph) Validate() error {
	if len(cg.Ops) == 0 {
		return fmt.Errorf("compiler: empty compiled graph")
	}
	for i := range cg.Ops {
		op := &cg.Ops[i]
		if len(op.Groups) == 0 {
			return fmt.Errorf("compiler: op %s has no groups", op.Name)
		}
		for gi, g := range op.Groups {
			if len(g.UTops) == 0 {
				return fmt.Errorf("compiler: op %s group %d empty", op.Name, gi)
			}
			meCount, veCount := 0, 0
			for _, u := range g.UTops {
				switch u.Kind {
				case isa.MEUTop:
					meCount++
					if u.MECycles == 0 {
						return fmt.Errorf("compiler: op %s: ME µTOp with zero ME cycles", op.Name)
					}
				case isa.VEUTop:
					veCount++
					if u.MECycles != 0 {
						return fmt.Errorf("compiler: op %s: VE µTOp with ME cycles", op.Name)
					}
				}
			}
			if meCount > cg.Target.MEs {
				return fmt.Errorf("compiler: op %s group %d has %d ME µTOps for %d MEs",
					op.Name, gi, meCount, cg.Target.MEs)
			}
			if veCount > 1 {
				return fmt.Errorf("compiler: op %s group %d has %d VE µTOps", op.Name, gi, veCount)
			}
		}
	}
	return nil
}
