package kv

import (
	"testing"
)

// extendPanics runs a.Extend(id, n) and reports whether it panicked.
func extendPanics(a *Allocator, id SeqID, n int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	a.Extend(id, n)
	return false
}

// refAllocator is the naive reference the fuzzer checks the real
// allocator against: maps and slices, no arenas, no open addressing —
// the obviously-correct implementation of the same semantics (free
// stack before idle LRU, oldest idle evicted first, per-block
// refcounts, full-block prefix caching).
type refAllocator struct {
	blockTokens int
	prefix      bool
	total       int
	free        int            // reclaimable uncached blocks
	idle        []uint64       // cached refcount-zero block keys, oldest first
	cache       map[uint64]int // key → refcount (resident prefix blocks)
	seqs        map[int]*refSeq
	nextID      int
}

type refSeq struct {
	tokens  int
	shared  []uint64 // one entry per cacheable block position
	private int      // uncacheable block count
}

func newRef(blocks, blockTokens int, prefix bool) *refAllocator {
	return &refAllocator{
		blockTokens: blockTokens, prefix: prefix, total: blocks,
		free: blocks, cache: map[uint64]int{}, seqs: map[int]*refSeq{},
	}
}

func (r *refAllocator) inUse() int { return r.total - r.free - len(r.idle) }

// obtain takes one reclaimable block: free stack first, then evict the
// oldest idle cached block.
func (r *refAllocator) obtain() bool {
	if r.free > 0 {
		r.free--
		return true
	}
	if len(r.idle) > 0 {
		delete(r.cache, r.idle[0])
		r.idle = r.idle[1:]
		return true
	}
	return false
}

func (r *refAllocator) alloc(tokens int, prefixKey uint64, prefixTokens int) (id, hits, lookups int, ok bool) {
	nb := (tokens + r.blockTokens - 1) / r.blockTokens
	cacheable := 0
	if r.prefix && prefixKey != 0 && prefixTokens > 0 {
		if prefixTokens > tokens {
			prefixTokens = tokens
		}
		cacheable = prefixTokens / r.blockTokens
		if cacheable > nb {
			cacheable = nb
		}
	}
	idleHits := 0
	for i := 0; i < cacheable; i++ {
		if ref, found := r.cache[blockKey(prefixKey, i)]; found {
			hits++
			if ref == 0 {
				idleHits++
			}
		}
	}
	lookups = cacheable
	if nb-hits > r.free+(len(r.idle)-idleHits) {
		return 0, hits, lookups, false
	}
	if len(r.seqs) == r.total {
		return 0, hits, lookups, false // sequence table full
	}
	s := &refSeq{tokens: tokens, private: nb - cacheable}
	// Claim hits and insert misses in index order; then obtain blocks
	// for every miss and every private position.
	for i := 0; i < cacheable; i++ {
		key := blockKey(prefixKey, i)
		if ref, found := r.cache[key]; found {
			if ref == 0 {
				r.removeIdle(key)
			}
			r.cache[key] = ref + 1
		} else {
			if !r.obtain() {
				panic("ref: capacity check violated")
			}
			r.cache[key] = 1
		}
		s.shared = append(s.shared, key)
	}
	for i := 0; i < s.private; i++ {
		if !r.obtain() {
			panic("ref: capacity check violated")
		}
	}
	id = r.nextID
	r.nextID++
	r.seqs[id] = s
	return id, hits, lookups, true
}

func (r *refAllocator) removeIdle(key uint64) {
	for i, k := range r.idle {
		if k == key {
			r.idle = append(r.idle[:i], r.idle[i+1:]...)
			return
		}
	}
	panic("ref: idle key missing")
}

func (r *refAllocator) grow(id int) bool {
	s := r.seqs[id]
	if s.tokens < (len(s.shared)+s.private)*r.blockTokens {
		s.tokens++
		return true
	}
	if !r.obtain() {
		return false
	}
	s.private++
	s.tokens++
	return true
}

// slack is the tokens a sequence can grow by inside its blocks.
func (r *refAllocator) slack(id int) int {
	s := r.seqs[id]
	return (len(s.shared)+s.private)*r.blockTokens - s.tokens
}

// extend grows a sequence by n tokens, taking the blocks it needs from
// the free ones only; it reports false, changing nothing, where the
// growth would need more blocks than are free.
func (r *refAllocator) extend(id, n int) bool {
	s := r.seqs[id]
	need := (s.tokens+n+r.blockTokens-1)/r.blockTokens - len(s.shared) - s.private
	if need > r.free {
		return false
	}
	r.free -= need
	s.private += need
	s.tokens += n
	return true
}

// fits reports whether alloc would succeed once claimed more blocks
// have been taken from the free ones.
func (r *refAllocator) fits(tokens int, prefixKey uint64, prefixTokens, claimed int) bool {
	nb := (tokens + r.blockTokens - 1) / r.blockTokens
	cacheable := 0
	if r.prefix && prefixKey != 0 && prefixTokens > 0 {
		cacheable = min(min(prefixTokens, tokens)/r.blockTokens, nb)
	}
	liveHits := 0
	for i := 0; i < cacheable; i++ {
		if ref, found := r.cache[blockKey(prefixKey, i)]; found && ref > 0 {
			liveHits++
		}
	}
	// An idle hit costs the idle block it reuses, like any other claim.
	return nb-liveHits+claimed <= r.free+len(r.idle) && claimed <= r.free && len(r.seqs) < r.total
}

func (r *refAllocator) freeSeq(id int) {
	s := r.seqs[id]
	for _, key := range s.shared {
		ref := r.cache[key] - 1
		if ref < 0 {
			panic("ref: negative refcount")
		}
		r.cache[key] = ref
		if ref == 0 {
			r.idle = append(r.idle, key)
		}
	}
	r.free += s.private
	delete(r.seqs, id)
}

// FuzzKVAllocator drives random alloc/grow/extend/free/reset sequences
// through the real allocator and the naive reference in lockstep,
// comparing every return value and the full block accounting after
// every operation. Each alloc is preceded by two fit queries, one with
// nothing claimed, which must answer what the alloc then does, and one
// with the op byte's high bits claimed from the free blocks.
func FuzzKVAllocator(f *testing.F) {
	f.Add([]byte{0, 0, 40, 1, 60, 0, 0, 10, 2, 8, 1, 0, 2, 5, 3, 0})
	f.Add([]byte{1, 0, 255, 1, 255, 0, 100, 3, 200, 1, 1, 2, 30, 1, 0})
	f.Add([]byte{1, 0, 17, 2, 16, 0, 17, 2, 16, 1, 0, 0, 17, 2, 16})
	// Hand out a few blocks, then grow past the arrays' first capacity.
	f.Add([]byte{1, 0, 17, 2, 16, 7, 1, 0, 0, 0, 120, 3, 120, 1, 90, 4, 64,
		4, 0, 31, 0, 7, 2, 0, 0, 2, 40, 3, 40, 6, 0, 0, 0, 7, 2, 0, 0, 0, 17, 2, 16})
	// Extend a 49-token sequence inside its seven blocks, then past them.
	f.Add([]byte{0, 0, 48, 3, 48, 7, 1, 0, 3, 7, 1, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		prefix := data[0]%2 == 1
		data = data[1:]
		const blocks, blockTokens = 24, 8
		a := NewAllocator(blocks, blockTokens, prefix)
		r := newRef(blocks, blockTokens, prefix)
		type pair struct {
			real SeqID
			ref  int
		}
		var live []pair
		check := func() {
			t.Helper()
			if a.FreeBlocks() != r.free || a.IdleBlocks() != len(r.idle) || a.InUse() != r.inUse() {
				t.Fatalf("state diverged: real %d/%d/%d, ref %d/%d/%d",
					a.FreeBlocks(), a.IdleBlocks(), a.InUse(), r.free, len(r.idle), r.inUse())
			}
			if a.FreeBlocks()+a.IdleBlocks()+a.InUse() != a.Total() {
				t.Fatalf("conservation violated: %d+%d+%d != %d",
					a.FreeBlocks(), a.IdleBlocks(), a.InUse(), a.Total())
			}
		}
		for len(data) >= 4 {
			op := data[0] % 8
			switch {
			case op <= 3: // alloc, weighted heaviest
				tokens := 1 + int(data[1])
				key := uint64(data[2] % 5)
				ptoks := int(data[3])
				claimed := int(data[0] / 8 % 8)
				if got, want := a.Fits(tokens, key, ptoks, claimed), r.fits(tokens, key, ptoks, claimed); got != want {
					t.Fatalf("fits(%d,%d,%d,%d) diverged: real %v, ref %v", tokens, key, ptoks, claimed, got, want)
				}
				fits := a.Fits(tokens, key, ptoks, 0)
				id, hits, lookups, ok := a.Alloc(tokens, key, ptoks)
				if fits != ok {
					t.Fatalf("fits(%d,%d,%d,0) = %v, but alloc ok = %v", tokens, key, ptoks, fits, ok)
				}
				rid, rhits, rlookups, rok := r.alloc(tokens, key, ptoks)
				if ok != rok || hits != rhits || lookups != rlookups {
					t.Fatalf("alloc(%d,%d,%d) diverged: real (%d,%d,%v), ref (%d,%d,%v)",
						tokens, key, ptoks, hits, lookups, ok, rhits, rlookups, rok)
				}
				if ok {
					if a.SeqTokens(id) != r.seqs[rid].tokens {
						t.Fatalf("seq tokens diverged: %d vs %d", a.SeqTokens(id), r.seqs[rid].tokens)
					}
					live = append(live, pair{id, rid})
				}
			case op <= 5 && len(live) > 0: // grow
				p := live[int(data[1])%len(live)]
				n := 1 + int(data[2]%32)
				for i := 0; i < n; i++ {
					if got, want := a.Grow(p.real), r.grow(p.ref); got != want {
						t.Fatalf("grow diverged: real %v, ref %v", got, want)
					}
				}
				if a.SeqTokens(p.real) != r.seqs[p.ref].tokens {
					t.Fatalf("grown tokens diverged")
				}
			case op == 6 && len(live) > 0: // free
				i := int(data[1]) % len(live)
				a.Free(live[i].real)
				r.freeSeq(live[i].ref)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case op == 7 && data[1] == 0: // rare full reset
				a.Reset()
				r = newRef(blocks, blockTokens, prefix)
				live = live[:0]
			case op == 7 && len(live) > 0: // extend, inside the blocks or past them
				p := live[int(data[2])%len(live)]
				n := int(data[3] % 24)
				if got, want := a.Slack(p.real), r.slack(p.ref); got != want {
					t.Fatalf("slack diverged: real %d, ref %d", got, want)
				}
				fits := r.extend(p.ref, n)
				if panicked := extendPanics(a, p.real, n); panicked == fits {
					t.Fatalf("extend(%d) diverged: real panicked %v, ref fits %v", n, panicked, fits)
				}
				if a.SeqTokens(p.real) != r.seqs[p.ref].tokens {
					t.Fatalf("extended tokens diverged: %d vs %d", a.SeqTokens(p.real), r.seqs[p.ref].tokens)
				}
			}
			check()
			data = data[4:]
		}
		for _, p := range live {
			a.Free(p.real)
			r.freeSeq(p.ref)
			check()
		}
		if a.InUse() != 0 {
			t.Fatalf("leak: %d blocks in use after freeing all", a.InUse())
		}
	})
}
