package serve

import (
	"fmt"
	"strings"
	"testing"
)

// workGoldenFile pins the work the simulator does, beside the five
// metric corpora that pin what it computes: one "<scenario>/events=<n>"
// line per scenario of every golden list, n being the events the run's
// calendar fired. The simulation is deterministic, so the count is an
// exact integer, and a change that makes the simulator do less (or
// more) work for the same Metrics shows in this file's regeneration
// diff, scenario by scenario. Regenerate with:
//
//	LITEGPU_UPDATE_GOLDENS=1 go test ./internal/serve -run Golden
const workGoldenFile = "testdata/work_goldens.txt"

// goldenCorpora lists the scenario lists of the five metric corpora.
func goldenCorpora(t *testing.T) [][]goldenScenario {
	return [][]goldenScenario{
		goldenScenarios(t), kvGoldenScenarios(t), networkGoldenScenarios(t),
		overloadGoldenScenarios(t), schedulerGoldenScenarios(t),
	}
}

// workReport runs every scenario once and renders its fired-event count.
func workReport(t *testing.T, corpora [][]goldenScenario) string {
	t.Helper()
	var b strings.Builder
	for _, scenarios := range corpora {
		for _, sc := range scenarios {
			if err := sc.cluster.Validate(); err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			s, err := newClusterSim(sc.cluster, float64(sc.horizon))
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			if !sortedByArrival(sc.reqs) {
				t.Fatalf("%s: trace is not in arrival order", sc.name)
			}
			if _, err := s.runFrom(&sliceSource{reqs: sc.reqs}); err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			fmt.Fprintf(&b, "%s/events=%d\n", sc.name, s.eng.EventsFired())
		}
	}
	return b.String()
}

// TestWorkGoldens pins every golden scenario's fired-event count.
func TestWorkGoldens(t *testing.T) {
	compareGoldens(t, workGoldenFile, workReport(t, goldenCorpora(t)))
}
