package mathx

// Chunk sizes of Samples: the first chunk holds firstChunk values, each
// later one twice the one before, up to chunkCap values (64 KiB), the
// size of every chunk after that. smallChunks is how many chunks come
// before the first full-size one.
const (
	firstChunk  = 64
	chunkCap    = 8192
	smallChunks = 7 // firstChunk << smallChunks == chunkCap
)

// Samples is an append-only sample for runs that cannot know their
// length up front. It keeps the values in chunks that are never
// re-copied: one allocation per chunk, and at most one partly filled
// chunk beyond the values held. The zero value is an empty sample; a
// Samples in use must not be copied, since copies share chunks.
type Samples struct {
	small      [smallChunks][]float64 // the doubling chunks, full length
	head, last *fullChunk             // the chunkCap chunks, in arrival order
	tail       []float64              // the chunk being filled
	pos        int                    // values held in tail
	chunks     int                    // chunks allocated
	n          int
}

// fullChunk is one chunkCap chunk and the link to the next, in one
// allocation, so a long run grows no list of chunk headers beside its
// chunks.
type fullChunk struct {
	vals [chunkCap]float64
	next *fullChunk
}

// Append adds x as the newest sample.
//
//litegpu:hotpath
func (s *Samples) Append(x float64) {
	if s.pos == len(s.tail) {
		s.refill()
	}
	s.tail[s.pos] = x
	s.pos++
	s.n++
}

// refill starts the next chunk. Chunks live as long as the sample, so
// there is nothing to recycle.
//
//litegpu:hotpath
func (s *Samples) refill() {
	if s.chunks < smallChunks {
		s.small[s.chunks] = make([]float64, firstChunk<<s.chunks) //litegpu:alloc-ok sample chunk: one per chunk, and chunks double up to chunkCap
		s.tail = s.small[s.chunks]
	} else {
		c := new(fullChunk) //litegpu:alloc-ok sample chunk: one per chunkCap samples
		if s.last == nil {
			s.head = c
		} else {
			s.last.next = c
		}
		s.last = c
		s.tail = c.vals[:]
	}
	s.chunks++
	s.pos = 0
}

// Len returns the number of samples.
func (s *Samples) Len() int { return s.n }

// each calls f with the filled part of every chunk, in arrival order.
func (s *Samples) each(f func([]float64)) {
	rest := s.n
	for _, c := range s.small {
		if rest == 0 {
			return
		}
		k := min(len(c), rest)
		f(c[:k])
		rest -= k
	}
	for c := s.head; rest > 0; c = c.next {
		k := min(chunkCap, rest)
		f(c.vals[:k])
		rest -= k
	}
}

// Sum returns the samples' sum, added in arrival order.
func (s *Samples) Sum() float64 {
	var sum float64
	s.each(func(c []float64) {
		for _, x := range c {
			sum += x
		}
	})
	return sum
}

// SummarizeSamples summarizes parts as one sample: the parts in order,
// each in arrival order. The result is bit for bit Summarize of that
// concatenation. It gathers the values into scratch and selects there
// in place, overwriting scratch, so one scratch array with room for
// the largest sample serves any number of summaries without allocating;
// a shorter one is replaced by a fresh array of the exact size.
func SummarizeSamples(scratch []float64, parts ...*Samples) Summary {
	n := 0
	for _, p := range parts {
		n += p.n
	}
	if n > cap(scratch) {
		scratch = make([]float64, 0, n)
	}
	buf := scratch[:0]
	for _, p := range parts {
		p.each(func(c []float64) { buf = append(buf, c...) })
	}
	return summarize(buf)
}
