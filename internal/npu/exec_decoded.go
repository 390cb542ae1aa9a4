package npu

import (
	"fmt"

	"neu10/internal/isa"
)

// The decoded fast path. RunVLIW and RunNeu execute the decode-once
// representation cached on the program (isa.DecodedCode): only the
// populated slots of each instruction word are visited, the slot kind
// is resolved at decode time into one flat opcode dispatch, and the
// register file / execution environment are scratch state reused across
// µTOps instead of being reallocated 16 KB at a time inside the
// 50M-instruction execution loop. Semantics are identical to the
// reference interpreter (step in step_ref_test.go) — decoding preserves the
// LS → ME → VE → misc slot order and omits only nops, which have no
// architectural effect. decoded_test.go locks the two paths together.

// scratchRF returns the core's reusable register file, zeroed — the
// architectural start state of every program and µTOp.
func (c *Core) scratchRF() *regFile {
	if c.execRF == nil {
		c.execRF = &regFile{}
	} else {
		*c.execRF = regFile{}
	}
	return c.execRF
}

// scratchMEs returns the identity ME binding [0..n) for RunVLIW without
// reallocating it per run.
func (c *Core) scratchMEs(n int) []int {
	if cap(c.execMEs) < n {
		c.execMEs = make([]int, n)
	}
	c.execMEs = c.execMEs[:n]
	for i := range c.execMEs {
		c.execMEs[i] = i
	}
	return c.execMEs
}

// stepDecoded executes one decoded instruction and returns the pc delta.
// It mirrors step (step_ref_test.go) case for case.
func (c *Core) stepDecoded(ops []isa.DecodedOp, rf *regFile, env *execEnv, pc int) (int, error) {
	delta := 1
	var maxCost uint64 = 1

	for i := range ops {
		op := ops[i].Op
		switch op.Op {
		// --- load/store slots ---
		case isa.OpVLoad:
			base := int(rf.s[op.A]) + int(op.Imm)
			if base < 0 || base+isa.VectorLanes > len(c.SRAM) {
				return 0, &Fault{PC: pc, Reason: fmt.Sprintf("SRAM load [%d,+128) out of range", base)}
			}
			copy(rf.v[op.Dst][:], c.SRAM[base:base+isa.VectorLanes])
		case isa.OpVStore:
			base := int(rf.s[op.A]) + int(op.Imm)
			if base < 0 || base+isa.VectorLanes > len(c.SRAM) {
				return 0, &Fault{PC: pc, Reason: fmt.Sprintf("SRAM store [%d,+128) out of range", base)}
			}
			copy(c.SRAM[base:base+isa.VectorLanes], rf.v[op.B][:])

		// --- ME slots ---
		case isa.OpMELoadW, isa.OpMEPush, isa.OpMEPop, isa.OpMEPopA:
			slot := int(ops[i].SlotIdx)
			if slot >= len(env.mes) {
				return 0, &Fault{PC: pc, Reason: fmt.Sprintf("ME slot %d has no bound engine", slot)}
			}
			me := c.MEs[env.mes[slot]]
			var cost uint64
			switch op.Op {
			case isa.OpMELoadW:
				rows, cols := int(op.Imm>>16), int(op.Imm&0xffff)
				base := int(rf.s[op.A])
				if base < 0 || base+rows*cols > len(c.SRAM) {
					return 0, &Fault{PC: pc, Reason: fmt.Sprintf("weight load [%d,+%d) out of range", base, rows*cols)}
				}
				if err := me.LoadWeights(c.SRAM[base:base+rows*cols], rows, cols); err != nil {
					return 0, &Fault{PC: pc, Reason: err.Error()}
				}
				cost = uint64(rows * c.Cfg.LoadWPerRow)
			case isa.OpMEPush:
				base, n := int(rf.s[op.A]), int(op.Imm)
				if base < 0 || base+n > len(c.SRAM) {
					return 0, &Fault{PC: pc, Reason: fmt.Sprintf("push row [%d,+%d) out of range", base, n)}
				}
				if err := me.Push(c.SRAM[base : base+n]); err != nil {
					return 0, &Fault{PC: pc, Reason: err.Error()}
				}
				cost = uint64(c.Cfg.PushCycles)
			case isa.OpMEPop, isa.OpMEPopA:
				row, err := me.Pop()
				if err != nil {
					return 0, &Fault{PC: pc, Reason: err.Error()}
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

		// --- VE slots ---
		case isa.OpVAdd, isa.OpVSub, isa.OpVMul, isa.OpVMax, isa.OpVRelu,
			isa.OpVMov, isa.OpVBcast, isa.OpVAddS, isa.OpVMulS, isa.OpVRsum:
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
			c.VEBusy[int(ops[i].SlotIdx)%len(c.VEBusy)] += cost
			if cost > maxCost {
				maxCost = cost
			}

		// --- misc slot ---
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
				return 0, &Fault{PC: pc, Reason: fmt.Sprintf("scalar load at %d out of range", addr)}
			}
			rf.setS(op.Dst, int32(c.SRAM[addr]))
		case isa.OpSStore:
			addr := int(rf.s[op.A]) + int(op.Imm)
			if addr < 0 || addr >= len(c.SRAM) {
				return 0, &Fault{PC: pc, Reason: fmt.Sprintf("scalar store at %d out of range", addr)}
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
				return 0, &Fault{PC: pc, Reason: "negative DMA length"}
			}
			if op.Op == isa.OpDMALoad {
				if src < 0 || src+n > len(c.HBM) {
					return 0, &Fault{PC: pc, Reason: fmt.Sprintf("DMA HBM read [%d,+%d) out of range", src, n)}
				}
				if dst < 0 || dst+n > len(c.SRAM) {
					return 0, &Fault{PC: pc, Reason: fmt.Sprintf("DMA SRAM write [%d,+%d) out of range", dst, n)}
				}
				copy(c.SRAM[dst:dst+n], c.HBM[src:src+n])
			} else {
				if src < 0 || src+n > len(c.SRAM) {
					return 0, &Fault{PC: pc, Reason: fmt.Sprintf("DMA SRAM read [%d,+%d) out of range", src, n)}
				}
				if dst < 0 || dst+n > len(c.HBM) {
					return 0, &Fault{PC: pc, Reason: fmt.Sprintf("DMA HBM write [%d,+%d) out of range", dst, n)}
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
	}

	c.Cycles += maxCost
	return delta, nil
}
