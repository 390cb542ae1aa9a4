package npu

import (
	"fmt"

	"neu10/internal/isa"
)

// step executes one instruction from its slot-structured form and
// returns the pc delta (normally +1, branch target offset otherwise).
// It is the reference interpreter, kept as a test oracle: the decoded
// fast path (stepDecoded, exec_decoded.go) must stay observationally
// identical to it, and the golden tests in decoded_test.go enforce that.
func (c *Core) step(in *isa.Instruction, rf *regFile, env *execEnv, pc int) (int, error) {
	delta := 1
	var maxCost uint64 = 1

	fault := func(reason string) error { return &Fault{PC: pc, Reason: reason} }

	// --- load/store slots ---
	for _, op := range in.LS {
		switch op.Op {
		case isa.OpNop:
		case isa.OpVLoad:
			base := int(rf.s[op.A]) + int(op.Imm)
			if base < 0 || base+isa.VectorLanes > len(c.SRAM) {
				return 0, fault(fmt.Sprintf("SRAM load [%d,+128) out of range", base))
			}
			copy(rf.v[op.Dst][:], c.SRAM[base:base+isa.VectorLanes])
		case isa.OpVStore:
			base := int(rf.s[op.A]) + int(op.Imm)
			if base < 0 || base+isa.VectorLanes > len(c.SRAM) {
				return 0, fault(fmt.Sprintf("SRAM store [%d,+128) out of range", base))
			}
			copy(c.SRAM[base:base+isa.VectorLanes], rf.v[op.B][:])
		}
	}

	// --- ME slots ---
	for slot, op := range in.ME {
		if op.Op == isa.OpNop {
			continue
		}
		if slot >= len(env.mes) {
			return 0, fault(fmt.Sprintf("ME slot %d has no bound engine", slot))
		}
		me := c.MEs[env.mes[slot]]
		var cost uint64
		switch op.Op {
		case isa.OpMELoadW:
			rows, cols := int(op.Imm>>16), int(op.Imm&0xffff)
			base := int(rf.s[op.A])
			if base < 0 || base+rows*cols > len(c.SRAM) {
				return 0, fault(fmt.Sprintf("weight load [%d,+%d) out of range", base, rows*cols))
			}
			if err := me.LoadWeights(c.SRAM[base:base+rows*cols], rows, cols); err != nil {
				return 0, fault(err.Error())
			}
			cost = uint64(rows * c.Cfg.LoadWPerRow)
		case isa.OpMEPush:
			base, n := int(rf.s[op.A]), int(op.Imm)
			if base < 0 || base+n > len(c.SRAM) {
				return 0, fault(fmt.Sprintf("push row [%d,+%d) out of range", base, n))
			}
			if err := me.Push(c.SRAM[base : base+n]); err != nil {
				return 0, fault(err.Error())
			}
			cost = uint64(c.Cfg.PushCycles)
		case isa.OpMEPop, isa.OpMEPopA:
			row, err := me.Pop()
			if err != nil {
				return 0, fault(err.Error())
			}
			dst := &rf.v[op.Dst]
			if op.Op == isa.OpMEPop {
				for i := range dst {
					dst[i] = 0
				}
				copy(dst[:], row)
			} else {
				for i, v := range row {
					dst[i] += v
				}
			}
			cost = uint64(c.Cfg.PopCycles)
		}
		c.MEBusy[env.mes[slot]] += cost
		if cost > maxCost {
			maxCost = cost
		}
	}

	// --- VE slots ---
	for slot, op := range in.VE {
		if op.Op == isa.OpNop {
			continue
		}
		dst, a, b := &rf.v[op.Dst], &rf.v[op.A], &rf.v[op.B]
		switch op.Op {
		case isa.OpVAdd:
			for i := range dst {
				dst[i] = a[i] + b[i]
			}
		case isa.OpVSub:
			for i := range dst {
				dst[i] = a[i] - b[i]
			}
		case isa.OpVMul:
			for i := range dst {
				dst[i] = a[i] * b[i]
			}
		case isa.OpVMax:
			for i := range dst {
				if a[i] > b[i] {
					dst[i] = a[i]
				} else {
					dst[i] = b[i]
				}
			}
		case isa.OpVRelu:
			for i := range dst {
				if a[i] > 0 {
					dst[i] = a[i]
				} else {
					dst[i] = 0
				}
			}
		case isa.OpVMov:
			*dst = *a
		case isa.OpVBcast:
			v := float32(rf.s[op.A])
			for i := range dst {
				dst[i] = v
			}
		case isa.OpVAddS:
			v := float32(op.Imm)
			for i := range dst {
				dst[i] = a[i] + v
			}
		case isa.OpVMulS:
			v := float32(op.Imm)
			for i := range dst {
				dst[i] = a[i] * v
			}
		case isa.OpVRsum:
			var sum float32
			for _, v := range a {
				sum += v
			}
			rf.setS(op.Dst, int32(sum))
		}
		cost := uint64(c.Cfg.VEOpCycles)
		c.VEBusy[slot%len(c.VEBusy)] += cost
		if cost > maxCost {
			maxCost = cost
		}
	}

	// --- misc slot ---
	switch op := in.Misc; op.Op {
	case isa.OpNop:
	case isa.OpHalt:
		env.halted = true
	case isa.OpSMovI:
		rf.setS(op.Dst, op.Imm)
	case isa.OpSAddI:
		rf.setS(op.Dst, rf.s[op.A]+op.Imm)
	case isa.OpSAdd:
		rf.setS(op.Dst, rf.s[op.A]+rf.s[op.B])
	case isa.OpSMul:
		rf.setS(op.Dst, rf.s[op.A]*rf.s[op.B])
	case isa.OpSLoad:
		addr := int(rf.s[op.A]) + int(op.Imm)
		if addr < 0 || addr >= len(c.SRAM) {
			return 0, fault(fmt.Sprintf("scalar load at %d out of range", addr))
		}
		rf.setS(op.Dst, int32(c.SRAM[addr]))
	case isa.OpSStore:
		addr := int(rf.s[op.A]) + int(op.Imm)
		if addr < 0 || addr >= len(c.SRAM) {
			return 0, fault(fmt.Sprintf("scalar store at %d out of range", addr))
		}
		c.SRAM[addr] = float32(rf.s[op.B])
	case isa.OpBEQ:
		if rf.s[op.A] == rf.s[op.B] {
			delta = int(op.Imm)
		}
	case isa.OpBNE:
		if rf.s[op.A] != rf.s[op.B] {
			delta = int(op.Imm)
		}
	case isa.OpBLT:
		if rf.s[op.A] < rf.s[op.B] {
			delta = int(op.Imm)
		}
	case isa.OpDMALoad, isa.OpDMAStore:
		dst, src, n := int(rf.s[op.Dst]), int(rf.s[op.A]), int(op.Imm)
		if n < 0 {
			return 0, fault("negative DMA length")
		}
		if op.Op == isa.OpDMALoad {
			if src < 0 || src+n > len(c.HBM) {
				return 0, fault(fmt.Sprintf("DMA HBM read [%d,+%d) out of range", src, n))
			}
			if dst < 0 || dst+n > len(c.SRAM) {
				return 0, fault(fmt.Sprintf("DMA SRAM write [%d,+%d) out of range", dst, n))
			}
			copy(c.SRAM[dst:dst+n], c.HBM[src:src+n])
		} else {
			if src < 0 || src+n > len(c.SRAM) {
				return 0, fault(fmt.Sprintf("DMA SRAM read [%d,+%d) out of range", src, n))
			}
			if dst < 0 || dst+n > len(c.HBM) {
				return 0, fault(fmt.Sprintf("DMA HBM write [%d,+%d) out of range", dst, n))
			}
			copy(c.HBM[dst:dst+n], c.SRAM[src:src+n])
		}
		cost := uint64(n/c.Cfg.DMAWordsPerC) + 1
		c.DMACycle += cost
		if cost > maxCost {
			maxCost = cost
		}
	case isa.OpUTopFinish:
		env.finished = true
	case isa.OpUTopNextGroup:
		env.nextGroup = int(rf.s[op.A])
	case isa.OpUTopGroup:
		rf.setS(op.Dst, int32(env.group))
	case isa.OpUTopIndex:
		rf.setS(op.Dst, int32(env.index))
	}

	c.Cycles += maxCost
	return delta, nil
}
