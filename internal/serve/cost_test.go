package serve

import (
	"sync"
	"sync/atomic"
	"testing"

	"neu10/internal/arch"
)

// TestCostKeyStringDistinct: LLM keys with the same batch and vNPU but
// a different phase, sequence or cached context must render apart, so
// a costing error names the bucket that failed.
func TestCostKeyStringDistinct(t *testing.T) {
	keys := []costKey{
		{model: llmModel, phase: PhasePrefill, batch: 8, seq: 64, ctx: 256, nm: 2, nv: 2},
		{model: llmModel, phase: PhasePrefill, batch: 8, seq: 64, nm: 2, nv: 2},
		{model: llmModel, phase: PhaseDecode, batch: 8, seq: 64, nm: 2, nv: 2},
		{model: llmModel, phase: PhaseDecode, batch: 8, seq: 128, nm: 2, nv: 2},
		{model: llmModel, batch: 8, nm: 2, nv: 2},
	}
	seen := map[string]costKey{}
	for _, k := range keys {
		s := k.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("keys %#v and %#v both render as %q", prev, k, s)
		}
		seen[s] = k
	}
	if got, want := keys[0].String(), "LLaMA/prefill batch 8 seq 64 ctx 256 on 2ME+2VE"; got != want {
		t.Errorf("chunk key renders as %q, want %q", got, want)
	}
}

// TestCostDBSingleFlightConcurrent drives the documented single-flight
// property under real concurrency (run with -race in CI): 32 goroutines
// racing on the SAME key must trigger exactly one measurement and all
// observe the identical value, while distinct keys measure
// independently — once each, however many lookups race.
func TestCostDBSingleFlightConcurrent(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	var measures atomic.Int64
	db.onMeasure = func(costKey) { measures.Add(1) }

	const racers = 32
	vals := make([]float64, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Batch 3 pads to 4: every racer resolves the same key.
			vals[i], errs[i] = db.ServiceCycles("MNIST", 3, 2, 2)
		}(i)
	}
	wg.Wait()
	for i := 0; i < racers; i++ {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		if vals[i] != vals[0] {
			t.Fatalf("racer %d observed %v, racer 0 observed %v", i, vals[i], vals[0])
		}
	}
	if got := measures.Load(); got != 1 {
		t.Errorf("same key measured %d times under %d concurrent lookups, want exactly 1", got, racers)
	}

	// Distinct keys — different models, phases and shapes — racing
	// together: one measurement per key, no cross-talk.
	measures.Store(0)
	type query func() (float64, error)
	queries := []query{
		func() (float64, error) { return db.ServiceCycles("MNIST", 8, 2, 2) },
		func() (float64, error) { return db.ServiceCycles("DLRM", 8, 2, 2) },
		func() (float64, error) { return db.LLMCycles(PhasePrefill, 2, 32, 2, 2) },
		func() (float64, error) { return db.LLMCycles(PhaseDecode, 2, 32, 2, 2) },
	}
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := queries[i%len(queries)](); err != nil {
				t.Errorf("query %d: %v", i%len(queries), err)
			}
		}(i)
	}
	wg.Wait()
	if got := measures.Load(); got != int64(len(queries)) {
		t.Errorf("%d distinct keys measured %d times, want one each", len(queries), got)
	}
}

// TestLLMCyclesBuckets pins the phase-key bucketing: batch and sequence
// both pad to powers of two, so lookups inside one bucket share an
// entry, and the two phases never alias.
func TestLLMCyclesBuckets(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	a, err := db.LLMCycles(PhaseDecode, 3, 33, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.LLMCycles(PhaseDecode, 4, 64, 2, 2) // same padded bucket (4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("bucketed lookups disagree: %v vs %v", a, b)
	}
	pre, err := db.LLMCycles(PhasePrefill, 4, 64, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pre == b {
		t.Error("prefill and decode of the same shape priced identically — phases alias")
	}
	// Prefill processes 64 tokens/sequence; a decode step emits one. The
	// compute asymmetry must be reflected in the measured costs.
	if pre < b {
		t.Errorf("prefill (%v cycles) cheaper than one decode step (%v cycles)", pre, b)
	}
	if _, err := db.LLMCycles(PhaseFull, 4, 64, 2, 2); err == nil {
		t.Error("PhaseFull accepted by LLMCycles")
	}
	if _, err := db.LLMCycles(PhaseDecode, 0, 64, 2, 2); err == nil {
		t.Error("zero batch accepted")
	}
}

// TestCostDBEntryCapConcurrent drives the entry cap under real
// concurrency (run with -race in CI): 32 goroutines hammering far more
// distinct keys than the cap allows must never grow the cache past the
// bound, and every query's value must be identical across racers and
// repeats — an overflow key measures uncached, which is a pure
// function of the key, so the cap bounds memory without being able to
// change a single result (the repo's worker-count determinism
// guarantee survives the cap engaging).
func TestCostDBEntryCapConcurrent(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	const cap = 4
	db.SetMaxEntries(cap)
	var measures atomic.Int64
	db.onMeasure = func(costKey) { measures.Add(1) }

	// 12 distinct fine keys (batch buckets 1..32 across two splits) — 3×
	// the cap.
	type q struct{ batch, nm, nv int }
	var queries []q
	for _, b := range []int{1, 2, 4, 8, 16, 32} {
		queries = append(queries, q{b, 1, 1}, q{b, 2, 2})
	}
	const racers = 32
	vals := make([][]float64, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, query := range queries {
				v, err := db.ServiceCycles("MNIST", query.batch, query.nm, query.nv)
				if err != nil {
					t.Errorf("query %+v: %v", query, err)
					return
				}
				vals[i] = append(vals[i], v)
			}
		}(i)
	}
	wg.Wait()
	if got := db.Entries(); got > cap {
		t.Errorf("cache grew to %d entries under a cap of %d", got, cap)
	}
	for i := 1; i < racers; i++ {
		for j := range vals[0] {
			if vals[i][j] != vals[0][j] {
				t.Fatalf("racer %d query %d observed %v, racer 0 observed %v — capped lookups are not pure",
					i, j, vals[i][j], vals[0][j])
			}
		}
	}
	// Overflow keys measure per query, so the hook must have fired more
	// often than the distinct-key count (the cap traded time, not
	// correctness), while the cache itself stayed bounded.
	if got := measures.Load(); got <= int64(len(queries)) {
		t.Errorf("only %d measurements for %d distinct keys across %d racers — the cap never engaged",
			got, len(queries), racers)
	}

	// The capped database must agree with an unbounded one on every
	// value (the cap cannot change results), and the unbounded one must
	// single-flight each distinct padded key exactly once.
	free := NewCostDB(arch.TPUv4Like())
	var count atomic.Int64
	free.onMeasure = func(costKey) { count.Add(1) }
	for round := 0; round < 2; round++ {
		for j, query := range queries {
			v, err := free.ServiceCycles("MNIST", query.batch, query.nm, query.nv)
			if err != nil {
				t.Fatal(err)
			}
			if v != vals[0][j] {
				t.Errorf("query %+v: capped database returned %v, unbounded %v", query, vals[0][j], v)
			}
		}
	}
	if got := count.Load(); got != int64(len(queries)) {
		t.Errorf("uncapped database measured %d times for %d distinct keys", got, len(queries))
	}
}

// TestCostDBCoarseBuckets pins the coarse-bucket fallback for outsized
// shapes: inside the fine catalog (batch ≤ 64 padded) buckets stay
// powers of two; beyond it they coarsen to powers of four — a pure
// function of the query, so two shapes in one coarse bucket share an
// entry in every run regardless of arrival order.
func TestCostDBCoarseBuckets(t *testing.T) {
	db := NewCostDB(arch.TPUv4Like())
	var measures atomic.Int64
	db.onMeasure = func(costKey) { measures.Add(1) }
	// Fine: 33 and 64 share the power-of-two bucket 64.
	a, err := db.ServiceCycles("MNIST", 33, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.ServiceCycles("MNIST", 64, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || measures.Load() != 1 {
		t.Errorf("fine bucket not shared: %v vs %v (%d measurements)", a, b, measures.Load())
	}
	// Coarse: 100 (pads past the fine catalog) and 256 share the
	// power-of-four bucket 256; 65 joins them too.
	measures.Store(0)
	c100, err := db.ServiceCycles("MNIST", 100, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	c256, err := db.ServiceCycles("MNIST", 256, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	c65, err := db.ServiceCycles("MNIST", 65, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c100 != c256 || c65 != c256 || measures.Load() != 1 {
		t.Errorf("coarse bucket not shared: %v / %v / %v (%d measurements)", c100, c256, c65, measures.Load())
	}
	if c256 == b {
		t.Error("coarse bucket aliased a fine bucket")
	}
}
