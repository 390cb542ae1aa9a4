package main

import (
	"strings"
	"testing"

	"neu10/internal/experiments"
)

// TestScenariosCoverServeIDs keeps the CLI scenario map (and so the
// help and error text built from it) in step with the experiment ids:
// every name maps to a serve-* id, and every serve-* id has a name.
func TestScenariosCoverServeIDs(t *testing.T) {
	named := map[string]bool{}
	for name, id := range scenarios {
		if !strings.HasPrefix(id, "serve-") {
			t.Errorf("scenario %s maps to non-serve id %s", name, id)
		}
		named[id] = true
	}
	for _, id := range experiments.IDs() {
		if strings.HasPrefix(id, "serve-") && !named[id] {
			t.Errorf("experiment %s has no CLI scenario name", id)
		}
	}
	if got := strings.Count(scenarioNames(), ","); got != len(scenarios)-1 {
		t.Errorf("scenarioNames lists %d names, want %d", got+1, len(scenarios))
	}
}
