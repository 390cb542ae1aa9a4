package npu

import (
	"fmt"

	"neu10/internal/isa"
)

// The interpreter. Slots of one instruction execute in the deterministic
// order LS → ME → VE → misc; the compiler is responsible for not encoding
// intra-instruction hazards it does not want (this matches the
// compiler-managed contract of VLIW machines). Scalar register 0 is
// hardwired to zero: writes to it are discarded.

// maxInstructions bounds any single program run so a buggy uTop.nextGroup
// loop or branch cycle returns an error instead of hanging the test suite.
const maxInstructions = 50_000_000

type regFile struct {
	v [isa.NumVectorRegs][isa.VectorLanes]float32
	s [isa.NumScalarRegs]int32
}

func (r *regFile) setS(idx uint8, v int32) {
	if idx != 0 {
		r.s[idx] = v
	}
}

// execEnv carries the per-µTOp execution environment through the
// interpreter: which physical ME the (single) ME slot drives, and the
// NeuISA group/index visible to uTop.group / uTop.index.
type execEnv struct {
	mes       []int // physical ME index per ME slot
	group     int
	index     int
	nextGroup int // -1 = fall through to group+1
	finished  bool
	halted    bool
}

// RunStats reports what a program run cost.
type RunStats struct {
	Instructions uint64
	Cycles       uint64
}

// RunVLIW executes a traditional VLIW program to its halt. ME slot i
// drives physical ME i; the program therefore requires at least
// Format.MESlots physical MEs — the static coupling the paper's Fig. 9
// illustrates. It returns run statistics. Execution runs over the
// program's cached decode-once representation.
func (c *Core) RunVLIW(p *isa.Program) (RunStats, error) {
	var st RunStats
	if err := p.Validate(); err != nil {
		return st, err
	}
	if p.Format.MESlots > c.Cfg.MEs {
		return st, fmt.Errorf("npu: program compiled for %d MEs, core has %d", p.Format.MESlots, c.Cfg.MEs)
	}
	mes := c.scratchMEs(p.Format.MESlots)
	rf := c.scratchRF()
	env := &execEnv{mes: mes, nextGroup: -1}
	dc := p.Decoded()
	start := c.Cycles
	pc := 0
	for !env.halted {
		if pc < 0 || pc >= dc.Len() {
			return st, &Fault{PC: pc, Reason: "pc out of range"}
		}
		d, err := c.stepDecoded(dc.At(pc), rf, env, pc)
		if err != nil {
			return st, err
		}
		pc += d
		st.Instructions++
		if st.Instructions > maxInstructions {
			return st, fmt.Errorf("npu: VLIW program exceeded %d instructions", maxInstructions)
		}
	}
	st.Cycles = c.Cycles - start
	return st, nil
}

// NeuRunStats extends RunStats with µTOp-level counts.
type NeuRunStats struct {
	RunStats
	UTopsRun  uint64
	GroupsRun uint64
}

// RunNeu executes a NeuISA program on the core using the given physical
// MEs (by index). Unlike RunVLIW, any positive number of MEs works: µTOps
// of a group are bound to the available engines round-robin — this is
// exactly the decoupling NeuISA exists to provide. Groups execute
// sequentially (data dependencies), µTOps within a group in table order;
// uTop.nextGroup redirects sequencing, and conflicting redirections from
// µTOps of the same group raise an error, per the paper §III-D.
func (c *Core) RunNeu(p *isa.NeuProgram, mes []int) (NeuRunStats, error) {
	var st NeuRunStats
	if err := p.Validate(); err != nil {
		return st, err
	}
	if len(mes) == 0 {
		return st, fmt.Errorf("npu: no MEs allocated")
	}
	for _, m := range mes {
		if m < 0 || m >= c.Cfg.MEs {
			return st, fmt.Errorf("npu: ME index %d out of range", m)
		}
	}
	start := c.Cycles
	group := 0
	for group >= 0 && group < len(p.Groups) {
		st.GroupsRun++
		utops := p.DecodedGroupUTops(group)
		next := -1
		nextSet := false
		for idx, ui := range utops {
			u := p.UTops[ui]
			dc := p.DecodedFor(u.Kind)
			rf := c.scratchRF()
			env := &execEnv{group: group, index: idx, nextGroup: -1}
			if u.Kind == isa.MEUTop {
				c.execOne[0] = mes[idx%len(mes)]
				env.mes = c.execOne[:1]
			}
			pc := u.Start
			for !env.finished {
				if pc < 0 || pc >= dc.Len() {
					return st, &Fault{PC: pc, Reason: "pc out of snippet range"}
				}
				d, err := c.stepDecoded(dc.At(pc), rf, env, pc)
				if err != nil {
					return st, err
				}
				pc += d
				st.Instructions++
				if st.Instructions > maxInstructions {
					return st, fmt.Errorf("npu: NeuISA program exceeded %d instructions", maxInstructions)
				}
			}
			st.UTopsRun++
			if env.nextGroup >= 0 {
				if nextSet && next != env.nextGroup {
					return st, fmt.Errorf("npu: group %d µTOps disagree on next group (%d vs %d)", group, next, env.nextGroup)
				}
				next, nextSet = env.nextGroup, true
			}
		}
		if nextSet {
			if next >= len(p.Groups) {
				return st, fmt.Errorf("npu: uTop.nextGroup target %d out of range", next)
			}
			group = next
		} else {
			group++
		}
	}
	st.Cycles = c.Cycles - start
	return st, nil
}
