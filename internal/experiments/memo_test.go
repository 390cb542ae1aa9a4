package experiments

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"neu10/internal/sched"
	"neu10/internal/workload"
)

func memoRunner(t *testing.T, workers int) *Runner {
	t.Helper()
	opts := DefaultOptions()
	opts.Requests = 1
	opts.Workers = workers
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// figureIDs is every experiment id but the serve-* scenarios, which
// never reach the simulation memo.
func figureIDs() []string {
	var ids []string
	for _, id := range IDs() {
		if !strings.HasPrefix(id, "serve-") {
			ids = append(ids, id)
		}
	}
	return ids
}

// pairSimsPerPass is the number of distinct pair simulations one pass
// over figureIDs runs: the 36-cell pair study (Figs. 19-22, Table III;
// Fig. 23 and the ablations' baselines read it), Fig. 24's 3 sampled
// runs, Fig. 25's 8 off-default configurations per pair (72), Fig. 26's
// 3 off-default bandwidths over 11 pairs under 2 policies (66) plus the
// 2 memory pairs at the default (4), Fig. 27's 6, ablation-harvest's
// 2 per pair (18) and ablation-preempt's 4 off-default costs per pair
// (36). Without the memo the same pass ran 340 pair simulations.
const pairSimsPerPass = 36 + 3 + 72 + 66 + 4 + 6 + 18 + 36

// TestSimMemo checks the simulation memo: (a) tables read from a runner
// whose memo already holds every figure's simulations are byte-identical
// to tables from fresh runners; (b) each distinct simulation runs
// exactly once even when figures sharing it run concurrently; (c) a
// failing simulation hands every reader the same error, and a figure
// reports the error of its lowest-index failing cell.
func TestSimMemo(t *testing.T) {
	ids := figureIDs()

	// (b) Every figure at once, in reverse order, on 4 workers.
	warm := memoRunner(t, 4)
	var mu sync.Mutex
	runs := map[simKey]int{}
	warm.onSimulate = func(k simKey) {
		mu.Lock()
		runs[k]++
		mu.Unlock()
	}
	rev := slices.Clone(ids)
	slices.Reverse(rev)
	if _, err := warm.RunMany(rev); err != nil {
		t.Fatal(err)
	}
	total := 0
	for k, n := range runs {
		if n != 1 {
			t.Errorf("%s/%s on %+v simulated %d times", k.pair.Name(), k.policy, k.core, n)
		}
		total += n
	}
	if total != pairSimsPerPass {
		t.Errorf("a pass over every figure ran %d pair simulations, want %d", total, pairSimsPerPass)
	}

	// (a) Re-running each figure on the warm runner reads only memo
	// hits (Fig. 24's sampled runs bypass the memo) and renders the
	// same bytes as the figure alone on a fresh runner.
	clear(runs)
	for _, id := range ids {
		got, err := warm.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := memoRunner(t, 2).Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Table() != want.Table() {
			t.Errorf("%s: warm-memo table differs from a fresh runner's:\n--- fresh ---\n%s\n--- warm ---\n%s",
				id, want.Table(), got.Table())
		}
	}
	for k, n := range runs {
		if !k.sample {
			t.Errorf("re-run simulated %s/%s %d times; want memo hits only", k.pair.Name(), k.policy, n)
		}
	}

	// (c) Concurrent readers of a failing key share one run and one error.
	r := memoRunner(t, 4)
	var failRuns int
	r.onSimulate = func(simKey) {
		mu.Lock()
		failRuns++
		mu.Unlock()
	}
	bad := pairKey(workload.Pair{W1: "NoSuchModel", W2: "MNIST"}, sched.Neu10, r.opts.Core)
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = r.simulate(bad)
		}()
	}
	wg.Wait()
	if failRuns != 1 {
		t.Errorf("failing key simulated %d times, want 1", failRuns)
	}
	for i, err := range errs {
		if err == nil || err != errs[0] {
			t.Fatalf("reader %d got %v, want the shared error %v", i, err, errs[0])
		}
	}

	// The lowest-index failing cell wins, whichever fails first on the
	// pool: plant failures at two pair-study cells.
	injected := errors.New("injected")
	fail := func(k simKey) {
		e := &simEntry{err: injected}
		e.once.Do(func() {})
		r.sims[k] = e
	}
	pairs := workload.Pairs()
	fail(pairKey(pairs[6], sched.PMT, r.opts.Core))
	fail(pairKey(pairs[2], sched.Neu10, r.opts.Core))
	_, err := r.PairStudy()
	if want := pairs[2].Name() + "/" + sched.Neu10.String() + ": injected"; err == nil || err.Error() != want || !errors.Is(err, injected) {
		t.Fatalf("PairStudy error %v, want %q", err, want)
	}
}
