package netsim

import (
	"math"
	"testing"

	"litegpu/internal/sim"
)

// recorder collects deliveries as (time, arg) pairs via a bound
// handler, so tests can assert exact completion schedules.
type recorder struct {
	at   []float64
	args []uint64
}

func (r *recorder) handle(now float64, arg uint64) {
	r.at = append(r.at, now)
	r.args = append(r.args, arg)
}

func newFabric(t *testing.T, eng *sim.Engine, p Params) *Fabric {
	t.Helper()
	f, err := New(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestValidate(t *testing.T) {
	eng := sim.New(1)
	if _, err := New(eng, Params{}); err == nil {
		t.Error("empty fabric must not validate")
	}
	if _, err := New(eng, Params{Ports: []float64{100, 0}}); err == nil {
		t.Error("zero port bandwidth must not validate")
	}
	if _, err := New(eng, Params{Ports: []float64{100}, PathLatency: -1}); err == nil {
		t.Error("negative latency must not validate")
	}
}

// TestSingleTransfer pins the base case: bytes/rate serialization plus
// the path-latency tail.
func TestSingleTransfer(t *testing.T) {
	eng := sim.New(1)
	f := newFabric(t, eng, Params{Ports: []float64{100, 100}, PathLatency: 0.5})
	var r recorder
	f.Start(0, 1, 1000, 0, r.handle, 7)
	eng.Run(math.Inf(1))
	if len(r.at) != 1 || !almost(r.at[0], 10.5) || r.args[0] != 7 {
		t.Fatalf("delivery = %v args %v, want [10.5] [7]", r.at, r.args)
	}
	if f.Delivered != 1 || f.BytesDelivered != 1000 {
		t.Fatalf("stats = %d/%v", f.Delivered, f.BytesDelivered)
	}
}

// TestZeroByteTransfer: a zero-byte transfer is legal and delivers
// after the latency overhead alone — and with zero latency it still
// goes through the calendar (delivering at the same timestamp), so
// same-time ordering stays deterministic.
func TestZeroByteTransfer(t *testing.T) {
	for _, lat := range []float64{0, 0.25} {
		eng := sim.New(1)
		f := newFabric(t, eng, Params{Ports: []float64{100, 100}, PathLatency: lat})
		var r recorder
		f.Start(0, 1, 0, 0, r.handle, 1)
		if len(r.at) != 0 {
			t.Fatalf("lat=%v: delivery fired synchronously inside Start", lat)
		}
		eng.Run(math.Inf(1))
		if len(r.at) != 1 || !almost(r.at[0], lat) {
			t.Fatalf("lat=%v: delivery = %v, want [%v]", lat, r.at, lat)
		}
	}
}

// TestPacketFairShare pins the two-flow case on one shared egress port:
// both flows run at half rate while they overlap, and the survivor
// speeds back up when the first delivers.
func TestPacketFairShare(t *testing.T) {
	eng := sim.New(1)
	f := newFabric(t, eng, Params{Ports: []float64{100, 100, 100}})
	var r recorder
	// Both flows leave endpoint 0: its egress is the bottleneck.
	f.Start(0, 1, 1000, 0, r.handle, 1)
	f.Start(0, 2, 1000, 0, r.handle, 2)
	eng.Run(math.Inf(1))
	// Shared at 50 B/s until the first finishes; they are symmetric, so
	// both serialize at 50 for 1000/50 = 20 s... but the instant one
	// finishes the other would speed up — being tied, they deliver
	// together at t = 20.
	if len(r.at) != 2 || !almost(r.at[0], 20) || !almost(r.at[1], 20) {
		t.Fatalf("deliveries = %v, want [20 20]", r.at)
	}
	if r.args[0] != 1 || r.args[1] != 2 {
		t.Fatalf("tied deliveries must fire in start order, got args %v", r.args)
	}
}

// TestPacketSpeedup: a short flow sharing a port with a long one
// finishes, and the long one reshapes to full rate from that moment.
func TestPacketSpeedup(t *testing.T) {
	eng := sim.New(1)
	f := newFabric(t, eng, Params{Ports: []float64{100, 100, 100}})
	var r recorder
	f.Start(0, 1, 2000, 0, r.handle, 1) // long
	f.Start(0, 2, 500, 0, r.handle, 2)  // short
	eng.Run(math.Inf(1))
	// Shared at 50 B/s: short delivers at 10 (500/50). Long has 1500
	// left, now at 100 B/s: 10 + 15 = 25.
	if len(r.at) != 2 || r.args[0] != 2 || !almost(r.at[0], 10) {
		t.Fatalf("short: deliveries %v args %v, want short at 10 first", r.at, r.args)
	}
	if !almost(r.at[1], 25) {
		t.Fatalf("long delivered at %v, want 25 (reshaped to full rate)", r.at[1])
	}
}

// TestMaxMinWaterfill pins a three-flow asymmetric case against the
// hand-computed max-min allocation.
func TestMaxMinWaterfill(t *testing.T) {
	eng := sim.New(1)
	f := newFabric(t, eng, Params{Ports: []float64{100, 100, 50}})
	var r recorder
	// A: 0→2, B: 1→2 (ingress 2 is the bottleneck: 25 each),
	// C: 0→1 (gets the leftovers: min(100-25, 100-25) = 75).
	f.Start(0, 2, 250, 0, r.handle, 'A')
	f.Start(1, 2, 250, 0, r.handle, 'B')
	f.Start(0, 1, 300, 0, r.handle, 'C')
	eng.Run(math.Inf(1))
	if len(r.at) != 3 {
		t.Fatalf("deliveries = %d", len(r.at))
	}
	// C at 75 B/s: 300/75 = 4 s. A and B at 25 B/s deliver at 10 s.
	byArg := map[uint64]float64{}
	for i, a := range r.args {
		byArg[a] = r.at[i]
	}
	if !almost(byArg['C'], 4) {
		t.Errorf("C delivered at %v, want 4", byArg['C'])
	}
	// After C delivers at t=4, A has 250-100=150 left. Freeing egress 0
	// does not help A or B (ingress 2 still splits 25/25), so they
	// still deliver at 10.
	if !almost(byArg['A'], 10) || !almost(byArg['B'], 10) {
		t.Errorf("A/B delivered at %v/%v, want 10/10", byArg['A'], byArg['B'])
	}
}

// TestCircuitSerialization pins the circuit discipline on a single
// endpoint pair: FIFO order, full port bandwidth, reconfiguration and
// path latency per circuit — the "single-link serialization order"
// edge case.
func TestCircuitSerialization(t *testing.T) {
	eng := sim.New(1)
	f := newFabric(t, eng, Params{
		Ports: []float64{100, 100}, Circuit: true,
		ReconfigTime: 1, PathLatency: 0.5,
	})
	var r recorder
	f.Start(0, 1, 1000, 0, r.handle, 1)
	f.Start(0, 1, 1000, 0, r.handle, 2)
	f.Start(0, 1, 0, 0, r.handle, 3) // zero-byte circuit still pays setup
	eng.Run(math.Inf(1))
	want := []float64{11.5, 23, 24.5}
	if len(r.at) != 3 {
		t.Fatalf("deliveries = %v", r.at)
	}
	for i := range want {
		if !almost(r.at[i], want[i]) || r.args[i] != uint64(i+1) {
			t.Fatalf("delivery %d = (%v, %d), want (%v, %d)", i, r.at[i], r.args[i], want[i], i+1)
		}
	}
}

// TestCircuitHeadOfLineSkip: a queued circuit blocked on a busy port
// does not block an independent circuit behind it in the FIFO.
func TestCircuitHeadOfLineSkip(t *testing.T) {
	eng := sim.New(1)
	f := newFabric(t, eng, Params{Ports: []float64{100, 100, 100, 100}, Circuit: true})
	var r recorder
	f.Start(0, 1, 1000, 0, r.handle, 1) // holds 0→1 for 10 s
	f.Start(0, 2, 1000, 0, r.handle, 2) // blocked: egress 0 busy
	f.Start(2, 3, 1000, 0, r.handle, 3) // independent: starts at once
	eng.Run(math.Inf(1))
	byArg := map[uint64]float64{}
	for i, a := range r.args {
		byArg[a] = r.at[i]
	}
	if !almost(byArg[3], 10) {
		t.Errorf("independent circuit delivered at %v, want 10 (must not queue behind blocked head)", byArg[3])
	}
	if !almost(byArg[1], 10) || !almost(byArg[2], 20) {
		t.Errorf("serialized pair delivered at %v/%v, want 10/20", byArg[1], byArg[2])
	}
}

// TestCancel covers cancelling pending and active transfers in both
// disciplines, stale-id no-ops, and that cancelled handlers never fire.
func TestCancel(t *testing.T) {
	t.Run("packet", func(t *testing.T) {
		eng := sim.New(1)
		f := newFabric(t, eng, Params{Ports: []float64{100, 100, 100}})
		var r recorder
		id := f.Start(0, 1, 1000, 0, r.handle, 1)
		f.Start(0, 2, 1000, 0, r.handle, 2)
		if !f.Cancel(id) {
			t.Fatal("cancel of live transfer failed")
		}
		if f.Cancel(id) {
			t.Fatal("stale cancel reported true")
		}
		eng.Run(math.Inf(1))
		// The survivor had 10 s of shared rate ahead; with the first
		// cancelled at t=0 it runs at full rate the whole way.
		if len(r.at) != 1 || r.args[0] != 2 || !almost(r.at[0], 10) {
			t.Fatalf("deliveries %v args %v, want survivor alone at 10", r.at, r.args)
		}
	})
	t.Run("circuit-pending", func(t *testing.T) {
		eng := sim.New(1)
		f := newFabric(t, eng, Params{Ports: []float64{100, 100}, Circuit: true})
		var r recorder
		f.Start(0, 1, 1000, 0, r.handle, 1)
		id := f.Start(0, 1, 1000, 0, r.handle, 2) // queued
		if !f.Cancel(id) {
			t.Fatal("cancel of pending transfer failed")
		}
		eng.Run(math.Inf(1))
		if len(r.at) != 1 || r.args[0] != 1 {
			t.Fatalf("deliveries %v, want only the first", r.args)
		}
		if f.InFlight() != 0 {
			t.Fatalf("in-flight = %d after drain", f.InFlight())
		}
	})
}

// TestMidFlightReshare: cancelling one of two sharing flows mid-flight
// settles the survivor's partial progress before speeding it up.
func TestMidFlightReshare(t *testing.T) {
	eng := sim.New(1)
	f := newFabric(t, eng, Params{Ports: []float64{100, 100, 100}})
	var r recorder
	id := f.Start(0, 1, 1000, 0, r.handle, 1)
	f.Start(0, 2, 1000, 0, r.handle, 2)
	// At t=4 (both at 50 B/s, 200 B in), cancel the first: survivor has
	// 800 left at 100 B/s → delivers at 4 + 8 = 12.
	eng.Schedule(4, -1, func(now float64) { f.Cancel(id) })
	eng.Run(math.Inf(1))
	if len(r.at) != 1 || !almost(r.at[0], 12) {
		t.Fatalf("survivor delivered at %v, want 12", r.at)
	}
}

// TestDeterminism runs an irregular workload twice and requires
// identical delivery schedules — the -count=2 contract.
func TestDeterminism(t *testing.T) {
	run := func() ([]float64, []uint64) {
		eng := sim.New(9)
		f := newFabric(t, eng, Params{Ports: []float64{100, 70, 130, 100}, PathLatency: 1e-3})
		var r recorder
		arg := uint64(0)
		for i := 0; i < 40; i++ {
			i := i
			eng.Schedule(float64(i)*0.7, 0, func(now float64) {
				arg++
				f.Start(i%4, (i+1+i%3)%4, float64(500+i*37), 0, r.handle, arg)
			})
		}
		eng.Run(math.Inf(1))
		return r.at, r.args
	}
	at1, args1 := run()
	at2, args2 := run()
	if len(at1) != 40 || len(at1) != len(at2) {
		t.Fatalf("delivery counts: %d vs %d", len(at1), len(at2))
	}
	for i := range at1 {
		if at1[i] != at2[i] || args1[i] != args2[i] {
			t.Fatalf("runs diverged at delivery %d: (%v,%d) vs (%v,%d)",
				i, at1[i], args1[i], at2[i], args2[i])
		}
	}
}

// TestSteadyStateAllocations pins the hot path: once the slab, the
// id slices, and the calendar are warm, starting and delivering
// transfers does not allocate.
func TestSteadyStateAllocations(t *testing.T) {
	for _, circuit := range []bool{false, true} {
		name := "packet"
		if circuit {
			name = "circuit"
		}
		t.Run(name, func(t *testing.T) {
			eng := sim.New(1)
			f := newFabric(t, eng, Params{
				Ports: []float64{100, 100, 100, 100}, Circuit: circuit, PathLatency: 1e-4,
			})
			sink := 0
			h := func(now float64, arg uint64) { sink++ }
			// Warm every pool: overlapping transfers from all endpoints.
			warm := func() {
				for i := 0; i < 16; i++ {
					f.Start(i%4, (i+1)%4, float64(100+i), 0, h, uint64(i))
				}
				eng.Run(math.Inf(1))
			}
			warm()
			allocs := testing.AllocsPerRun(10, warm)
			if allocs > 0 {
				t.Errorf("%s steady state allocates %.1f per wave, want 0", name, allocs)
			}
		})
	}
}
