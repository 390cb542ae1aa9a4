package model

import (
	"sync"

	"neu10/internal/compiler"
)

// Phase-split LLM graphs for autoregressive serving (internal/serve's
// continuous batcher). The registered "LLaMA" model is the §V-F case
// study — a fixed 8-step batched decode run, right for figure sweeps
// but useless for serving, where every iteration's composition changes.
// Serving instead prices the two phases separately:
//
//   - LLMPrefill(batch, prompt): process `prompt` tokens per sequence in
//     one forward pass — the compute-bound phase (big GEMMs, quadratic
//     attention) that also emits each sequence's first token.
//   - LLMDecode(batch, ctx): one decode iteration — a single token per
//     sequence attending over `ctx` cached tokens. GEMV-shaped matmuls
//     stream the full weight matrices for tiny M: the HBM-bound phase
//     whose per-token cost is what continuous batching amortizes.
//
// Both use the LLaMA2-13B dimensions of the registry model, so the
// serving layer, the §V-F collocation figures and the KV accounting
// (LLMWeightBytes / LLMKVBytesPerToken) all describe one model.
const (
	llmLayers = 40
	llmHidden = 5120
	llmFFN    = 13824
	llmHeads  = 40
	llmVocab  = 32000

	// llmOpsPerLayer is the operator count of one layer of a phase graph.
	llmOpsPerLayer = 9
)

// llmLayerNames holds one layer's operator names, layerName(base, l).
type llmLayerNames struct {
	qkv, scores, softmax, ctx, oProj, rmsnorm1, gateUp, ffnDown, rmsnorm2 string
}

// llmNames formats every layer's names once: the registry LLaMA and
// each phase graph the serving cost model builds name the same 360
// operators.
var llmNames = sync.OnceValue(func() []llmLayerNames {
	t := make([]llmLayerNames, llmLayers)
	for l := range t {
		t[l] = llmLayerNames{
			qkv:      layerName("qkv", l),
			scores:   layerName("scores", l),
			softmax:  layerName("softmax", l),
			ctx:      layerName("ctx", l),
			oProj:    layerName("o-proj", l),
			rmsnorm1: layerName("rmsnorm1", l),
			gateUp:   layerName("gate-up", l),
			ffnDown:  layerName("ffn-down", l),
			rmsnorm2: layerName("rmsnorm2", l),
		}
	}
	return t
})

// newLLMBuilder starts a phase graph with room for every operator.
func newLLMBuilder(name string, batch int) *builder {
	b := newBuilder(name, batch)
	b.g.Ops = make([]compiler.Op, 0, llmOpsPerLayer*llmLayers+1)
	return b
}

// LLMParams returns the parameter count of the serving LLM.
func LLMParams() int64 {
	return int64(llmLayers)*(4*int64(llmHidden)*int64(llmHidden)+3*int64(llmHidden)*int64(llmFFN)) +
		2*int64(llmVocab)*int64(llmHidden)
}

// LLMWeightBytes returns the resident weight bytes of the serving LLM
// (bf16, matching the registry LLaMA's footprint convention). This is
// what a serving replica subtracts from its §III HBM partition before
// carving the remainder into KV-cache blocks.
func LLMWeightBytes() int64 { return LLMParams() * 2 }

// LLMKVBytesPerToken returns the KV-cache bytes one token of one
// sequence pins: K and V vectors across all layers, bf16.
func LLMKVBytesPerToken() int64 { return 2 * int64(llmLayers) * int64(llmHidden) * 2 }

// LLMKVTransferBytes returns the payload a KV migration of `tokens`
// resident tokens ships over the chip-to-chip interconnect — the full
// per-layer K/V pages a disaggregated decode replica needs before it
// can take the sequence's first decode iteration.
func LLMKVTransferBytes(tokens int) int64 {
	if tokens <= 0 {
		return 0
	}
	return int64(tokens) * LLMKVBytesPerToken()
}

// LLMPrefill builds the prompt-processing phase: `prompt` tokens per
// sequence through every layer, plus the last position's logits (the
// first emitted token). Attention is quadratic in the prompt; the
// weight matrices stream once regardless of batch. It is exactly the
// zero-context chunk case.
func LLMPrefill(batch, prompt int) *compiler.Graph {
	return LLMPrefillChunk(batch, prompt, 0)
}

// LLMPrefillChunk builds one chunked-prefill step: `chunk` new tokens
// per sequence pushed through every layer while attending over `ctx`
// ALREADY-CACHED tokens plus the chunk itself. The GEMMs scale with
// the chunk alone (that is what chunking buys), but attention scales
// with chunk × (ctx + chunk): a late chunk of a long prompt pays for
// the whole context behind it, exactly the work a constant per-chunk
// price would hide. LLMPrefillChunk(b, p, 0) is LLMPrefill(b, p).
func LLMPrefillChunk(batch, chunk, ctx int) *compiler.Graph {
	b := newLLMBuilder("LLaMA-prefill", batch)
	headDim := llmHidden / llmHeads
	tokens := batch * chunk
	span := ctx + chunk

	for _, n := range llmNames() {
		b.matmul(n.qkv, tokens, llmHidden, 3*llmHidden, false)
		b.actMatmul(n.scores, batch*llmHeads*chunk, headDim, span, false)
		b.vec(n.softmax, compiler.Softmax, int64(batch)*int64(llmHeads)*int64(chunk)*int64(span), 4)
		b.actMatmul(n.ctx, batch*llmHeads*chunk, span, headDim, false)
		b.matmul(n.oProj, tokens, llmHidden, llmHidden, false)
		b.vec(n.rmsnorm1, compiler.LayerNorm, int64(tokens)*llmHidden, 3)
		b.matmul(n.gateUp, tokens, llmHidden, 2*llmFFN, true) // fused SiLU
		b.matmul(n.ffnDown, tokens, llmFFN, llmHidden, false)
		b.vec(n.rmsnorm2, compiler.LayerNorm, int64(tokens)*llmHidden, 3)
	}
	// Only the final position needs logits; intermediate chunks carry
	// the (small) lm-head too, pricing the conservative side.
	b.matmul("lm-head", batch, llmHidden, llmVocab, false)

	kv := int64(batch) * int64(span) * LLMKVBytesPerToken()
	return b.finish(LLMWeightBytes() + kv)
}

// LLMDecode builds one decode iteration: a single new token per
// sequence, attending over `ctx` cached tokens. Identical in structure
// to the registry LLaMA's inner step, but parameterized on context so
// the serving layer can price growing sequences into bucketed costs.
func LLMDecode(batch, ctx int) *compiler.Graph {
	b := newLLMBuilder("LLaMA-decode", batch)
	headDim := llmHidden / llmHeads

	for _, n := range llmNames() {
		b.matmul(n.qkv, batch, llmHidden, 3*llmHidden, false)
		b.actMatmul(n.scores, batch*llmHeads, headDim, ctx, false)
		b.vec(n.softmax, compiler.Softmax, int64(batch)*int64(llmHeads)*int64(ctx), 4)
		b.actMatmul(n.ctx, batch*llmHeads, ctx, headDim, false)
		b.matmul(n.oProj, batch, llmHidden, llmHidden, false)
		b.vec(n.rmsnorm1, compiler.LayerNorm, int64(batch)*llmHidden, 3)
		b.matmul(n.gateUp, batch, llmHidden, 2*llmFFN, true) // fused SiLU
		b.matmul(n.ffnDown, batch, llmFFN, llmHidden, false)
		b.vec(n.rmsnorm2, compiler.LayerNorm, int64(batch)*llmHidden, 3)
	}
	b.matmul("lm-head", batch, llmHidden, llmVocab, false)

	kv := int64(batch) * int64(ctx+1) * LLMKVBytesPerToken()
	return b.finish(LLMWeightBytes() + kv)
}
