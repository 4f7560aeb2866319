package trace

import (
	"fmt"
	"math"

	"litegpu/internal/mathx"
	"litegpu/internal/units"
)

// TenantClass is one tenant population sharing a cluster: its own
// arrival and token-length process, plus the priority admission control
// uses to rank it against the other classes under overload.
type TenantClass struct {
	// Name labels the class in reports (defaults to "class<i>").
	Name string
	// Gen is the class's arrival/length process. Its Seed is ignored
	// unless nonzero: by default every class derives an independent
	// stream from MultiGenerator.Seed, so adding a class never perturbs
	// the others.
	Gen Generator
	// Priority ranks the class for admission control; higher is more
	// important. Zero is the lowest tier.
	Priority int
}

// FlashCrowd is one transient surge in a class-wide arrival envelope:
// between At and At+Duration the instantaneous rate is multiplied by
// Factor (a regional failover, a product launch, a retry storm's
// upstream cause).
type FlashCrowd struct {
	At       units.Seconds
	Duration units.Seconds
	Factor   float64
}

// Envelope shapes arrival intensity over the horizon, multiplying the
// per-class base rates (and composing with MMPP bursts, which modulate
// on much shorter timescales). The zero value is flat: enabled
// generators stay byte-identical to their un-enveloped streams.
type Envelope struct {
	// DiurnalAmplitude in [0, 1) swings the rate sinusoidally:
	// rate(t) = rate · (1 + A·sin(2πt/Period)). Zero disables the swing.
	DiurnalAmplitude float64
	// DiurnalPeriod is the sinusoid period (default 86400 s — one day).
	DiurnalPeriod units.Seconds
	// Flash lists transient surges layered on top of the diurnal swing.
	Flash []FlashCrowd
}

// Enabled reports whether the envelope shapes anything.
func (e Envelope) Enabled() bool {
	return e.DiurnalAmplitude > 0 || len(e.Flash) > 0
}

// Validate reports the first envelope problem, or nil.
func (e Envelope) Validate() error {
	if e.DiurnalAmplitude < 0 || e.DiurnalAmplitude >= 1 {
		return fmt.Errorf("trace: DiurnalAmplitude %v outside [0, 1)", e.DiurnalAmplitude)
	}
	if e.DiurnalAmplitude > 0 && e.DiurnalPeriod < 0 {
		return fmt.Errorf("trace: negative DiurnalPeriod %v", e.DiurnalPeriod)
	}
	for i, f := range e.Flash {
		if f.Factor < 1 || f.Duration <= 0 || f.At < 0 ||
			math.IsNaN(f.Factor) || math.IsInf(f.Factor, 0) {
			return fmt.Errorf("trace: flash crowd %d needs At ≥ 0, Duration > 0, finite Factor ≥ 1", i)
		}
	}
	return nil
}

func (e Envelope) period() float64 {
	if p := float64(e.DiurnalPeriod); p > 0 {
		return p
	}
	return 86400
}

// factor returns the envelope's rate multiplier at time t.
func (e Envelope) factor(t float64) float64 {
	v := 1.0
	if e.DiurnalAmplitude > 0 {
		v = 1 + e.DiurnalAmplitude*math.Sin(2*math.Pi*t/e.period())
	}
	for _, f := range e.Flash {
		if t >= float64(f.At) && t < float64(f.At)+float64(f.Duration) {
			v *= f.Factor
		}
	}
	return v
}

// peak bounds factor(t) from above: the diurnal crest times the product
// of every flash factor. Overlapping flashes attain the bound; disjoint
// ones make thinning merely reject more candidates, which costs draws
// but never correctness.
func (e Envelope) peak() float64 {
	v := 1 + e.DiurnalAmplitude
	for _, f := range e.Flash {
		v *= f.Factor
	}
	return v
}

// MultiGenerator produces a multi-tenant request stream: each class's
// arrivals synthesize independently (own rates, lengths, bursts), the
// envelope shapes all of them, and the merged stream interleaves the
// classes in arrival order with globally sequential IDs. Requests carry
// their class index and priority, which is what the serving layer's
// per-class SLOs and admission control key on.
type MultiGenerator struct {
	Classes []TenantClass
	// Envelope shapes every class's arrival intensity; the zero value
	// leaves the class streams byte-identical to standalone Generators.
	Envelope Envelope
	// Seed derives every class's stream (and the envelope-thinning
	// stream) via mathx.DeriveSeed, unless a class pins its own
	// Gen.Seed.
	Seed uint64
}

// Validate reports the first configuration problem, or nil.
func (m MultiGenerator) Validate() error {
	if len(m.Classes) == 0 {
		return fmt.Errorf("trace: MultiGenerator needs at least one class")
	}
	for i, c := range m.Classes {
		if err := c.Gen.Validate(); err != nil {
			return fmt.Errorf("trace: class %d (%s): %w", i, c.Name, err)
		}
		if c.Priority < 0 {
			return fmt.Errorf("trace: class %d (%s): negative priority %d", i, c.Name, c.Priority)
		}
	}
	return m.Envelope.Validate()
}

// Generate materializes all requests arriving within the horizon, in
// nondecreasing arrival order. It is implemented on Stream, so the two
// are byte-identical.
func (m MultiGenerator) Generate(horizon units.Seconds) ([]Request, error) {
	s, err := m.Stream(horizon)
	if err != nil {
		return nil, err
	}
	var reqs []Request
	for {
		r, ok := s.Next()
		if !ok {
			return reqs, nil
		}
		reqs = append(reqs, r)
	}
}

// envStream is one class's enveloped arrival stream: candidates are
// generated at the envelope's peak rate and thinned (accepted with
// probability factor(t)/peak) from a dedicated RNG, the standard exact
// simulation of an inhomogeneous Poisson process — and the thinning
// composes with the class's own MMPP modulation, which rides inside the
// candidate stream. With the envelope disabled this is the plain class
// stream: no extra RNG exists and no draw is added, so single-class
// zero-envelope MultiGenerators reproduce Generator streams byte for
// byte.
type envStream struct {
	s    *Stream
	env  Envelope
	peak float64
	rng  *mathx.RNG // nil when the envelope is off
}

func (es *envStream) next() (Request, bool) {
	for {
		r, ok := es.s.Next()
		if !ok || es.rng == nil {
			return r, ok
		}
		if es.rng.Float64()*es.peak < es.env.factor(float64(r.Arrival)) {
			return r, true
		}
	}
}

// MultiStream merges the per-class enveloped streams in arrival order
// (ties break toward the lower class index), renumbering IDs globally
// and stamping each request with its class index and priority. It
// implements the same lazy O(in-flight) contract as Stream and plugs
// into RunClusterFrom unchanged.
type MultiStream struct {
	m       MultiGenerator
	streams []*envStream
	heads   []Request
	headOK  []bool
	n       int
}

// Stream validates the generator and returns the lazy merged iterator
// for all requests arriving within the horizon.
func (m MultiGenerator) Stream(horizon units.Seconds) (*MultiStream, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	ms := &MultiStream{
		m:       m,
		streams: make([]*envStream, len(m.Classes)),
		heads:   make([]Request, len(m.Classes)),
		headOK:  make([]bool, len(m.Classes)),
	}
	for i, c := range m.Classes {
		g := c.Gen
		if g.Seed == 0 {
			g.Seed = mathx.DeriveSeed(m.Seed, uint64(i))
		}
		es := &envStream{env: m.Envelope}
		if m.Envelope.Enabled() {
			es.peak = m.Envelope.peak()
			g.Rate *= es.peak
			// The thinning stream is derived, not split, so it exists
			// only when the envelope does — a flat envelope leaves the
			// class stream untouched.
			es.rng = mathx.NewRNG(mathx.DeriveSeed(g.Seed, math.MaxUint64))
		}
		s, err := g.Stream(horizon)
		if err != nil {
			return nil, err
		}
		es.s = s
		ms.streams[i] = es
		ms.heads[i], ms.headOK[i] = es.next()
	}
	return ms, nil
}

// Next returns the next merged arrival, or ok=false once every class
// stream is exhausted.
func (ms *MultiStream) Next() (Request, bool) {
	best := -1
	for i := range ms.streams {
		if !ms.headOK[i] {
			continue
		}
		if best < 0 || ms.heads[i].Arrival < ms.heads[best].Arrival {
			best = i
		}
	}
	if best < 0 {
		return Request{}, false
	}
	r := ms.heads[best]
	ms.heads[best], ms.headOK[best] = ms.streams[best].next()
	r.ID = ms.n
	r.Class = best
	r.Priority = ms.m.Classes[best].Priority
	ms.n++
	return r, true
}
