package main

import "testing"

func TestGate(t *testing.T) {
	base := Result{Name: "B", NsPerOp: 100, AllocsPerOp: 300}
	cases := []struct {
		name             string
		ns               float64
		allocs           int64
		threshold, ratio float64
		wantRegressions  int
	}{
		{"within both", 350, 600, 300, 2, 0},
		{"slower than the threshold", 401, 300, 300, 2, 1},
		{"allocs at the bound", 100, 2*300 + allocSlack, 300, 2, 0},
		{"allocs past the bound", 100, 2*300 + allocSlack + 1, 300, 2, 1},
		{"both past", 500, 5000, 300, 2, 2},
		{"gates off", 500, 5000, -1, -1, 0},
	}
	for _, tc := range cases {
		r := Result{Name: "B", NsPerOp: tc.ns, AllocsPerOp: tc.allocs}
		if got := gate(r, base, tc.threshold, tc.ratio); len(got) != tc.wantRegressions {
			t.Errorf("%s: gate reported %q, want %d regressions", tc.name, got, tc.wantRegressions)
		}
	}
	// A zero-allocation baseline still allows the one-time slack, and
	// no more.
	zero := Result{Name: "Z", NsPerOp: 100}
	for _, allocs := range []int64{allocSlack, allocSlack + 1} {
		got := gate(Result{Name: "Z", NsPerOp: 100, AllocsPerOp: allocs}, zero, -1, 2)
		if want := int(allocs - allocSlack); len(got) != want {
			t.Errorf("zero baseline, %d allocs/op: gate reported %q, want %d regressions", allocs, got, want)
		}
	}
}
