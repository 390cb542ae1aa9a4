package experiments

import (
	"strings"
	"testing"

	"neu10/internal/obs"
	"neu10/internal/serve"
)

// TestTraceLifecycleProperty checks the request-lifecycle trace of every
// serve-* scenario run with Trace and Attrib on. Per request, async
// phases must nest LIFO ("evac" only inside an open "decode"), and no
// phase may still be open at the request's complete or crash-outcome
// instant (a crash ends every phase) or at the end of the run. The
// requests with a complete instant must be exactly the ledger's
// completed records.
func TestTraceLifecycleProperty(t *testing.T) {
	opts := DefaultOptions()
	opts.ServeObs = &serve.ObsConfig{Trace: true, Attrib: true}
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		proc string
		req  int64
	}
	evacs := 0
	for _, id := range IDs() {
		if !strings.HasPrefix(id, "serve-") {
			continue
		}
		res, err := r.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range res.(*ServeResult).Reports {
			if rep.Trace == nil {
				continue // serve-attrib forces a trace-free ObsConfig
			}
			open := map[key][]string{}
			completed := map[key]bool{}
			for _, e := range rep.Trace.Events() {
				k := key{e.Proc, e.Req}
				switch {
				case e.Ph == obs.PhaseBegin:
					if e.Name == "evac" {
						if st := open[k]; len(st) == 0 || st[len(st)-1] != "decode" {
							t.Fatalf("%s %s#%d: evac opened outside decode (open %v)", rep.Scenario, e.Proc, e.Req, st)
						}
						evacs++
					}
					open[k] = append(open[k], e.Name)
				case e.Ph == obs.PhaseEnd:
					st := open[k]
					if len(st) == 0 || st[len(st)-1] != e.Name {
						t.Fatalf("%s %s#%d: End %q does not close the innermost phase (open %v)", rep.Scenario, e.Proc, e.Req, e.Name, st)
					}
					open[k] = st[:len(st)-1]
				case e.Ph == obs.PhaseInstant && (e.Name == "complete" || strings.HasPrefix(e.Name, "crash-")):
					if st := open[k]; len(st) != 0 {
						t.Fatalf("%s %s#%d: %s with phases %v still open", rep.Scenario, e.Proc, e.Req, e.Name, st)
					}
					if e.Name == "complete" {
						if completed[k] {
							t.Fatalf("%s %s#%d: completed twice", rep.Scenario, e.Proc, e.Req)
						}
						completed[k] = true
					}
				}
			}
			for k, st := range open {
				if len(st) != 0 {
					t.Errorf("%s %s#%d: phases %v never closed", rep.Scenario, k.proc, k.req, st)
				}
			}
			if rep.Ledger == nil {
				continue // serve-chaos-traced forces an attribution-free ObsConfig
			}
			recs := rep.Ledger.Completed()
			if len(recs) != len(completed) {
				t.Errorf("%s: %d complete instants, ledger completed %d", rep.Scenario, len(completed), len(recs))
			}
			for _, rec := range recs {
				if !completed[key{rec.Proc, rec.ID}] {
					t.Errorf("%s %s#%d: ledger completed without a complete instant", rep.Scenario, rec.Proc, rec.ID)
				}
			}
		}
	}
	if evacs == 0 {
		t.Error("no scenario exercised an evacuation")
	}
}
