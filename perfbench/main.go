// Command perfbench is the repository benchmark: it times the figure
// regeneration, cold LLM serving and an observed multi-tenant fleet
// end to end, gates every output against recorded digests, and in a
// separate traced run breaks the time down by layer. README.md defines
// the workloads and metrics; run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"neu10/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed of the serve workloads' traffic (serve.Config.Seed)")
	seconds := fs.Int("seconds", 10, "how long the untraced run keeps timing passes")
	traced := fs.Int("trace", 0, "1 = the traced run: per-layer metrics instead of end-to-end ones")
	requests := fs.Int("requests", experiments.DefaultOptions().Requests, "requests per tenant for the figures workload")
	outDir := fs.String("out", ".bench_build", "directory for the traced run's span file")
	record := fs.Bool("record", false, "print one pass's digests in digests.txt format instead of gating them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 || *seconds < 1 || *requests < 1 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1, --seconds and --requests at least 1")
		return 2
	}
	// The experiment pool and the Go scheduler stay within the CPUs the
	// process may use, capped at two so runs on larger hosts compare.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	p := params{seed: *seed, requests: *requests, workers: procs}

	table, err := parseDigests(recordedDigests)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var res *result
	switch {
	case *record:
		err = recordDigests(stdout, *name, p)
	case *traced == 1:
		res, err = tracedRun(stdout, *name, p, table, *outDir)
	default:
		res, err = timedRun(stdout, *name, p, table, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res != nil {
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

// setupOnce builds a bench's pass state and returns the set-up time.
// A cheap set-up is repeated, timed as one batch (until 5 ms are spent,
// at most 1000 times), and the mean is returned, so sub-microsecond
// set-ups are not lost in timer resolution.
func setupOnce(b bench) (float64, error) {
	reps := 0
	t := time.Now()
	for reps == 0 || reps < 1000 && time.Since(t) < 5*time.Millisecond {
		if err := b.setup(nil); err != nil {
			return 0, err
		}
		reps++
	}
	return time.Since(t).Seconds() / float64(reps), nil
}

// timedRun is the untraced run: set-up and timed pass, repeated until
// the run has measured for at least `budget`. Every end-to-end metric
// is the median over passes.
func timedRun(stdout io.Writer, name string, p params, table map[string]map[string]string, budget time.Duration) (*result, error) {
	b, err := newBench(name, p)
	if err != nil {
		return nil, err
	}
	g := newGate(table, name, variant(name, p))
	var wall, setup, allocMB, allocsK, rssMB []float64
	start := time.Now()
	for len(wall) == 0 || time.Since(start) < budget {
		debug.FreeOSMemory()
		st, err := setupOnce(b)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setup = append(setup, st)
		// Set-up and pass each start with the heap collected and
		// returned to the OS; the pass also with the peak-RSS mark reset
		// to the current RSS.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		ops := b.pass(nil)
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rssMB = append(rssMB, rss)
		g.check(ops, true)
		wall = append(wall, d.Seconds())
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		allocsK = append(allocsK, float64(m1.Mallocs-m0.Mallocs)/1e3)
	}
	vals := metricValues{
		"wall_s":      median(wall),
		"setup_s":     median(setup),
		"alloc_mb":    median(allocMB),
		"allocs_k":    median(allocsK),
		"peak_rss_mb": median(rssMB),
	}
	mode := "recorded digests"
	if !g.recorded() {
		mode = "no recorded digests, every pass must match the first"
	}
	fmt.Fprintf(stdout, "workload %s, variant %s (%s), %d passes in %.1f s, GOMAXPROCS %d\n",
		name, variant(name, p), mode, len(wall), time.Since(start).Seconds(), runtime.GOMAXPROCS(0))
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"wall_s", wall}, {"setup_s", setup}, {"alloc_mb", allocMB}, {"allocs_k", allocsK}, {"peak_rss_mb", rssMB}} {
		fmt.Fprintf(stdout, "  %-12s %s\n", s.name, spread(s.xs))
	}
	return finish(stdout, vals, endToEnd, []*gate{g})
}

// spread describes a sample: count, median, min, max, and the highest
// percentile with at least ten samples beyond it when there is one.
func spread(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := fmt.Sprintf("n=%d median=%.6g min=%.6g max=%.6g", len(s), quantile(s, 0.5), s[0], s[len(s)-1])
	if n := len(s); n >= 20 {
		out += fmt.Sprintf(" p%d=%.6g", 100*(n-10)/n, s[n-11])
	}
	return out
}

// resetPeakRSS sets the process's peak-RSS mark to its current RSS
// (Linux /proc/<pid>/clear_refs, value 5), so each pass's peak is its
// own.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak-RSS mark: %w", err)
	}
	return nil
}

// peakRSSMB is the peak resident set since the last resetPeakRSS
// (getrusage; Linux reports KiB).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil
}

// finish emits the metrics and folds the gates into the result.
func finish(stdout io.Writer, vals metricValues, defs []metricDef, gates []*gate) (*result, error) {
	m, err := vals.emit(defs)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: m}
	for _, g := range gates {
		res.Attempted += g.attempts
		res.Failed += len(g.failures)
		for _, f := range g.failures {
			fmt.Fprintln(stdout, "  FAILED", f)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// tracedRun is the per-layer run. Per-layer metrics cover every layer,
// so it runs a traced set-up and pass of every workload, then the two
// layer probes; the requested workload is first timed with and without
// tracing for the tracing overhead. The spans go to
// <out>/perfbench-<workload>.trace.json, loadable in Perfetto.
func tracedRun(stdout io.Writer, name string, p params, table map[string]map[string]string, outDir string) (*result, error) {
	if _, err := newBench(name, p); err != nil {
		return nil, err
	}
	vals := metricValues{}
	gates := map[string]*gate{}
	for _, n := range workloadNames {
		gates[n] = newGate(table, n, variant(n, p))
	}

	// Tracing overhead: after one warm-up pass, untraced passes and
	// passes traced into a throwaway tracer alternate until 2 s have
	// passed, and their medians are compared.
	timePass := func(tr *tracer) (float64, error) {
		b, _ := newBench(name, p)
		if err := b.setup(tr); err != nil {
			return 0, fmt.Errorf("%s set-up: %w", name, err)
		}
		debug.FreeOSMemory()
		t := time.Now()
		ops := b.pass(tr)
		d := time.Since(t)
		gates[name].check(ops, true)
		return d.Seconds(), nil
	}
	if _, err := timePass(nil); err != nil {
		return nil, err
	}
	var plain, traced []float64
	for start := time.Now(); len(plain) == 0 || time.Since(start) < 2*time.Second; {
		u, err := timePass(nil)
		if err != nil {
			return nil, err
		}
		t, err := timePass(newTracer())
		if err != nil {
			return nil, err
		}
		plain, traced = append(plain, u), append(traced, t)
	}
	vals["trace.overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
	fmt.Fprintf(stdout, "%s: untraced pass %s s, traced pass %s s\n", name, spread(plain), spread(traced))

	tr := newTracer()
	for _, n := range workloadNames {
		b, _ := newBench(n, p)
		tr.begin("bench.setup", n)
		err := b.setup(tr)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", n, err)
		}
		debug.FreeOSMemory()
		tr.begin("bench.pass", n)
		ops := b.pass(tr)
		root := tr.end()
		gates[n].check(ops, true)
		if n == name {
			vals["trace.coverage_pct"] = 100 * tr.covered(root).Seconds() / tr.spans[root].dur().Seconds()
		}
		tr.begin("bench.layers", n)
		gates[n].check(b.layers(tr, vals), false)
		tr.end()
	}
	for _, probe := range []func(*tracer, metricValues) error{schedProbe, costModelProbe} {
		if err := probe(tr, vals); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}

	path := filepath.Join(outDir, "perfbench-"+name+".trace.json")
	if err := writeTrace(tr, path); err != nil {
		return nil, err
	}
	printLayers(stdout, tr, vals)
	fmt.Fprintf(stdout, "spans: %d, written to %s\n", len(tr.spans), path)
	var gs []*gate
	for _, n := range workloadNames {
		gs = append(gs, gates[n])
	}
	return finish(stdout, vals, perLayer, gs)
}

func writeTrace(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// printLayers prints self time per span name and every per-layer
// metric beside the end-to-end metric it should move.
func printLayers(stdout io.Writer, tr *tracer, vals metricValues) {
	self := tr.selfByName()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	byLayer := map[string]time.Duration{}
	fmt.Fprintln(stdout, "self time by span (span minus its children):")
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-30s %10.2f ms\n", n, ms(self[n]))
		byLayer[layerOf(n)] += self[n]
	}
	fmt.Fprint(stdout, "self time by layer:")
	for _, l := range []string{"experiments", "workload", "model", "compiler", "sched", "serve", "obs", "probe", "bench"} {
		fmt.Fprintf(stdout, " %s %.1f ms;", l, ms(byLayer[l]))
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "per-layer metrics:")
	for _, d := range perLayer {
		fmt.Fprintf(stdout, "  %-36s %14.6g %-6s -> %s\n", d.name, vals[d.name], d.unit, d.moves)
	}
}

// recordDigests prints one pass's digests in digests.txt format.
func recordDigests(stdout io.Writer, name string, p params) error {
	b, err := newBench(name, p)
	if err != nil {
		return err
	}
	if err := b.setup(nil); err != nil {
		return err
	}
	for _, o := range b.pass(nil) {
		if o.err != nil {
			return fmt.Errorf("%s: %w", o.id, o.err)
		}
		fmt.Fprintf(stdout, "%s %s %s %s\n", name, variant(name, p), o.id, o.digest)
	}
	return nil
}
