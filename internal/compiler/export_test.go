package compiler

// LowerOp exposes the per-operator lowering to the external tests, which
// use it as the memo-free reference for Compile.
func (c *Compiler) LowerOp(op *Op, kind ISAKind) CompiledOp { return c.lowerOp(op, kind) }
