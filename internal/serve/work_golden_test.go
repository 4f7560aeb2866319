package serve

import (
	"fmt"
	"strings"
	"testing"
)

// workGoldenFile pins the work the simulator does, beside the five
// metric corpora that pin what it computes: per scenario of every
// golden list, one "<scenario>/events=<n>" line, n being the events the
// run's calendar fired, one "<scenario>/runs=<n>" line counting the
// decode runs its batch engines started, and one "<scenario>/cuts=<n>"
// line counting the runs cut short after a dispatch pass. The
// simulation is deterministic, so every count is an exact integer, and
// a change that makes the simulator do less (or more) work for the same
// Metrics shows in this file's regeneration diff, scenario by scenario. Regenerate with:
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

// workReport runs every scenario once and renders its work counts.
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
			starts, cuts := 0, 0
			for _, p := range s.pools {
				starts += p.core.starts
				cuts += p.core.cuts
			}
			fmt.Fprintf(&b, "%s/events=%d\n%s/runs=%d\n%s/cuts=%d\n",
				sc.name, s.eng.EventsFired(), sc.name, starts, sc.name, cuts)
		}
	}
	return b.String()
}

// TestWorkGoldens pins every golden scenario's work counts.
func TestWorkGoldens(t *testing.T) {
	compareGoldens(t, workGoldenFile, workReport(t, goldenCorpora(t)))
}
