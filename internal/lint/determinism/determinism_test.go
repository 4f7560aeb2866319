package determinism_test

import (
	"testing"

	"litegpu/internal/lint/analysistest"
	"litegpu/internal/lint/determinism"
)

const testdata = "../testdata"

// TestSimPackage pins every determinism finding: wall clocks, global
// math/rand draws, map ranges, goroutine spawns — and the sanctioned
// counterparts (seeded generators, the key-collection idiom) staying
// silent.
func TestSimPackage(t *testing.T) {
	analysistest.Run(t, testdata, "sim", determinism.Analyzer)
}

// TestNonSimPackageSilent pins the scope rule: the same constructs
// outside a simulation package produce no findings.
func TestNonSimPackageSilent(t *testing.T) {
	analysistest.Run(t, testdata, "notsim", determinism.Analyzer)
}

// TestKVPackageInScope pins that the KV allocator package is simulation
// scope: map-order eviction, wall-clock stamps, and implicit
// randomness are findings there, while the sorted-eviction and
// seeded-draw idioms stay silent.
func TestKVPackageInScope(t *testing.T) {
	analysistest.Run(t, testdata, "kv", determinism.Analyzer)
}

// TestServeBackoffFixture pins the closed-loop client contract: retry
// backoff jitter may be drawn only from an explicitly seeded generator.
// Global-stream jitter, wall-clock deadlines, and global-stream retry
// shuffles are findings; the seeded-RNG backoff stays silent.
func TestServeBackoffFixture(t *testing.T) {
	analysistest.Run(t, testdata, "serve", determinism.Analyzer)
}

// TestWaivers pins the waiver contract: //litegpu:ordered-ok suppresses
// exactly the finding on the line it covers (trailing or next-line),
// while stale waivers, reasonless waivers, and unknown directives are
// themselves reported.
func TestWaivers(t *testing.T) {
	analysistest.Run(t, testdata, "waive/sim", determinism.Analyzer)
}

// TestGoroutineWaivers pins that no waiver covers a goroutine spawn:
// every spawn fires, and a waiver written on one is reported stale.
func TestGoroutineWaivers(t *testing.T) {
	analysistest.Run(t, testdata, "goroutine/sim", determinism.Analyzer)
}
