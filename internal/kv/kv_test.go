package kv

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"litegpu/internal/mathx"
)

// checkConservation asserts the block accounting invariant after an
// operation: free + idle + in-use == total.
func checkConservation(t *testing.T, a *Allocator) {
	t.Helper()
	if got := a.FreeBlocks() + a.IdleBlocks() + a.InUse(); got != a.Total() {
		t.Fatalf("conservation violated: free %d + idle %d + inuse %d = %d, total %d",
			a.FreeBlocks(), a.IdleBlocks(), a.InUse(), got, a.Total())
	}
}

func TestConfigParseStringRoundTrip(t *testing.T) {
	for _, spec := range []string{"off", "recompute", "swap", "recompute+prefix", "swap+prefix"} {
		c, err := ParseConfig(spec)
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", spec, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("Validate(%q): %v", spec, err)
		}
		if got := c.String(); got != spec {
			t.Fatalf("ParseConfig(%q).String() = %q", spec, got)
		}
	}
	for _, spec := range []string{"", "none"} {
		c, err := ParseConfig(spec)
		if err != nil || c.Enabled() {
			t.Fatalf("ParseConfig(%q) = %+v, %v; want zero config", spec, c, err)
		}
	}
	for _, bad := range []string{"paged", "swap+lru", "recompute+prefix+x"} {
		if _, err := ParseConfig(bad); err == nil {
			t.Fatalf("ParseConfig(%q) accepted", bad)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	// Computed at run time so the row also builds where int is 32 bits
	// (the conversion then wraps negative, which is rejected too).
	overInt32 := int64(math.MaxInt32) + 1
	cases := []struct {
		c  Config
		ok bool
	}{
		{Config{}, true},
		{Config{Policy: Recompute}, true},
		{Config{Policy: Swap, PrefixCache: true, BlockTokens: 32, Blocks: 100}, true},
		{Config{Policy: Policy(99)}, false},
		{Config{Policy: Policy(-1)}, false},
		{Config{Policy: Recompute, BlockTokens: -1}, false},
		{Config{Policy: Recompute, Blocks: -5}, false},
		{Config{BlockTokens: 16}, false}, // parameters without a policy
		{Config{PrefixCache: true}, false},
		// Block ids are int32.
		{Config{Policy: Recompute, Blocks: math.MaxInt32}, true},
		{Config{Policy: Recompute, Blocks: int(overInt32)}, false},
	}
	for _, tc := range cases {
		if err := tc.c.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.c, err, tc.ok)
		}
	}
	if (Config{}).BlockTokensOrDefault() != 16 {
		t.Fatal("default BlockTokens is not 16")
	}
	if (Config{BlockTokens: 8}).BlockTokensOrDefault() != 8 {
		t.Fatal("explicit BlockTokens ignored")
	}
	if got := len(DefaultPolicyCandidates()); got != 3 {
		t.Fatalf("DefaultPolicyCandidates: %d candidates", got)
	}
}

func TestAllocGrowFreeBasics(t *testing.T) {
	a := NewAllocator(10, 4, false)
	checkConservation(t, a)

	// 7 tokens → 2 blocks of 4.
	id, hits, lookups, ok := a.Alloc(7, 0, 0)
	if !ok || hits != 0 || lookups != 0 {
		t.Fatalf("Alloc = %v %d %d %v", id, hits, lookups, ok)
	}
	if a.InUse() != 2 || a.SeqBlocks(id) != 2 || a.SeqTokens(id) != 7 {
		t.Fatalf("after alloc: inuse %d blocks %d tokens %d", a.InUse(), a.SeqBlocks(id), a.SeqTokens(id))
	}
	checkConservation(t, a)

	// One grow fills the slack (token 8), the next claims block 3.
	if !a.Grow(id) || a.SeqBlocks(id) != 2 {
		t.Fatalf("slack grow claimed a block (blocks=%d)", a.SeqBlocks(id))
	}
	if !a.Grow(id) || a.SeqBlocks(id) != 3 || a.SeqTokens(id) != 9 {
		t.Fatalf("boundary grow: blocks=%d tokens=%d", a.SeqBlocks(id), a.SeqTokens(id))
	}
	checkConservation(t, a)

	a.Free(id)
	if a.InUse() != 0 || a.FreeBlocks() != 10 {
		t.Fatalf("after free: inuse %d free %d", a.InUse(), a.FreeBlocks())
	}
	checkConservation(t, a)
}

func TestAllocFailureHasNoSideEffects(t *testing.T) {
	a := NewAllocator(4, 4, false)
	id, _, _, ok := a.Alloc(12, 0, 0) // 3 of 4 blocks
	if !ok {
		t.Fatal("seed alloc failed")
	}
	free, idle, inuse := a.FreeBlocks(), a.IdleBlocks(), a.InUse()
	if _, _, _, ok := a.Alloc(8, 0, 0); ok { // needs 2, only 1 free
		t.Fatal("over-capacity alloc succeeded")
	}
	if a.FreeBlocks() != free || a.IdleBlocks() != idle || a.InUse() != inuse {
		t.Fatalf("failed alloc mutated state: %d/%d/%d → %d/%d/%d",
			free, idle, inuse, a.FreeBlocks(), a.IdleBlocks(), a.InUse())
	}
	// Grow failure is likewise side-effect-free.
	a2 := NewAllocator(1, 1, false)
	gid, _, _, _ := a2.Alloc(1, 0, 0)
	if a2.Grow(gid) {
		t.Fatal("grow succeeded with zero reclaimable blocks")
	}
	if a2.SeqTokens(gid) != 1 || a2.SeqBlocks(gid) != 1 {
		t.Fatal("failed grow mutated the sequence")
	}
	_ = id
}

func TestDoubleFreePanics(t *testing.T) {
	a := NewAllocator(4, 4, false)
	id, _, _, _ := a.Alloc(4, 0, 0)
	a.Free(id)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(id)
}

func TestFreedHandleOpsPanic(t *testing.T) {
	a := NewAllocator(4, 4, false)
	id, _, _, _ := a.Alloc(4, 0, 0)
	a.Free(id)
	for name, f := range map[string]func(){
		"Grow":      func() { a.Grow(id) },
		"Slack":     func() { a.Slack(id) },
		"Extend":    func() { a.Extend(id, 0) },
		"Extend+":   func() { a.Extend(id, 5) },
		"SeqTokens": func() { a.SeqTokens(id) },
		"SeqBlocks": func() { a.SeqBlocks(id) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on freed handle did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestExtendMatchesGrows checks Slack and Extend against Grow: for
// every token count and every n up to three blocks past the slack,
// Extend(n) leaves the sequence and the block accounting exactly where
// n Grows do, claiming free blocks as it goes.
func TestExtendMatchesGrows(t *testing.T) {
	const bt = 4
	for tokens := 1; tokens <= 3*bt; tokens++ {
		probe := NewAllocator(8, bt, false)
		id, _, _, _ := probe.Alloc(tokens, 0, 0)
		slack := probe.Slack(id)
		if want := probe.SeqBlocks(id)*bt - tokens; slack != want {
			t.Fatalf("%d tokens: Slack = %d, want %d", tokens, slack, want)
		}
		for n := 0; n <= slack+3*bt; n++ {
			grown, extended := NewAllocator(8, bt, false), NewAllocator(8, bt, false)
			gid, _, _, _ := grown.Alloc(tokens, 0, 0)
			eid, _, _, _ := extended.Alloc(tokens, 0, 0)
			for i := 0; i < n; i++ {
				grown.Grow(gid)
			}
			extended.Extend(eid, n)
			if extended.SeqTokens(eid) != grown.SeqTokens(gid) || extended.SeqBlocks(eid) != grown.SeqBlocks(gid) ||
				extended.Slack(eid) != grown.Slack(gid) || extended.InUse() != grown.InUse() ||
				extended.FreeBlocks() != grown.FreeBlocks() {
				t.Fatalf("%d tokens: Extend(%d) left %d tokens in %d blocks, %d Grows %d in %d",
					tokens, n, extended.SeqTokens(eid), extended.SeqBlocks(eid), n, grown.SeqTokens(gid), grown.SeqBlocks(gid))
			}
			checkConservation(t, extended)
		}
	}
}

// TestExtendPastBlocksPanics pins that Extend claims only free blocks:
// growth that needs more blocks than FreeBlocks panics and leaves the
// sequence as it was, even where an idle cached block could be evicted
// for it, and so does a negative count.
func TestExtendPastBlocksPanics(t *testing.T) {
	a := NewAllocator(4, 4, true)
	cached, _, _, _ := a.Alloc(4, 7, 4) // block 0, cached under prefix 7
	a.Free(cached)                      // block 0 idles
	id, _, _, _ := a.Alloc(6, 0, 0)     // blocks 1 and 2, slack 2; block 3 free
	for _, n := range []int{7, 100, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Extend(%d) with slack 2 and one free block did not panic", n)
				}
			}()
			a.Extend(id, n)
		}()
		if a.SeqTokens(id) != 6 || a.SeqBlocks(id) != 2 || a.InUse() != 2 || a.IdleBlocks() != 1 {
			t.Fatalf("Extend(%d) that panicked changed the allocator: %d tokens in %d blocks, %d idle",
				n, a.SeqTokens(id), a.SeqBlocks(id), a.IdleBlocks())
		}
	}
	a.Extend(id, 6)
	if a.Slack(id) != 0 || a.SeqBlocks(id) != 3 || a.FreeBlocks() != 0 || a.IdleBlocks() != 1 {
		t.Fatalf("Extend onto the last free block: slack %d, %d blocks, %d free, %d idle",
			a.Slack(id), a.SeqBlocks(id), a.FreeBlocks(), a.IdleBlocks())
	}
}

// TestFitsMatchesAlloc checks Fits against Alloc: with nothing claimed
// it answers what Alloc then does, across prefix hits on live and idle
// blocks and a full sequence table, and claimed blocks count against
// the free blocks only.
func TestFitsMatchesAlloc(t *testing.T) {
	a := NewAllocator(6, 4, true)
	steps := []struct {
		tokens, ptoks int
		key           uint64
	}{
		{8, 8, 1}, {8, 8, 1}, {12, 4, 2}, {16, 0, 0}, {4, 4, 2}, {8, 8, 1}, {4, 0, 0}, {4, 0, 0},
	}
	for i, st := range steps {
		fits := a.Fits(st.tokens, st.key, st.ptoks, 0)
		if _, _, _, ok := a.Alloc(st.tokens, st.key, st.ptoks); ok != fits {
			t.Fatalf("step %d: Fits %v, Alloc %v", i, fits, ok)
		}
		if fits && i == 2 {
			if a.Fits(4, 0, 0, a.FreeBlocks()) || !a.Fits(4, 0, 0, a.FreeBlocks()-1) {
				t.Fatalf("step %d: claimed blocks miscounted with %d free", i, a.FreeBlocks())
			}
		}
	}
	full := NewAllocator(2, 4, true)
	full.Alloc(4, 9, 4)
	full.Alloc(4, 9, 4)
	if full.Fits(4, 9, 4, 0) {
		t.Fatal("Fits with every sequence slot live")
	}
}

func TestPrefixSharingAndRefcounts(t *testing.T) {
	a := NewAllocator(16, 4, true)
	const key = 0xabc

	// First request: 12-token prompt, 8 of them shared prefix → blocks
	// 0 and 1 cacheable, block 2 private.
	id1, hits, lookups, ok := a.Alloc(12, key, 8)
	if !ok || hits != 0 || lookups != 2 {
		t.Fatalf("first alloc: hits %d lookups %d ok %v", hits, lookups, ok)
	}
	if a.InUse() != 3 {
		t.Fatalf("inuse %d", a.InUse())
	}
	checkConservation(t, a)

	// Second request, same prefix: both cacheable blocks hit while the
	// first sequence is still live (shared-active).
	id2, hits, lookups, ok := a.Alloc(12, key, 8)
	if !ok || hits != 2 || lookups != 2 {
		t.Fatalf("second alloc: hits %d lookups %d ok %v", hits, lookups, ok)
	}
	if a.InUse() != 4 { // 2 shared + 2 private
		t.Fatalf("inuse %d after sharing", a.InUse())
	}
	checkConservation(t, a)

	// Free the first: shared blocks stay in use (ref 1), private returns.
	a.Free(id1)
	if a.InUse() != 3 || a.IdleBlocks() != 0 {
		t.Fatalf("after free1: inuse %d idle %d", a.InUse(), a.IdleBlocks())
	}
	checkConservation(t, a)

	// Free the second: prefix blocks idle in cache, private block frees.
	a.Free(id2)
	if a.InUse() != 0 || a.IdleBlocks() != 2 {
		t.Fatalf("after free2: inuse %d idle %d", a.InUse(), a.IdleBlocks())
	}
	checkConservation(t, a)

	// Third request hits the idle blocks without allocating them anew.
	id3, hits, _, ok := a.Alloc(8, key, 8)
	if !ok || hits != 2 || a.IdleBlocks() != 0 || a.InUse() != 2 {
		t.Fatalf("idle revival: hits %d idle %d inuse %d ok %v", hits, a.IdleBlocks(), a.InUse(), ok)
	}
	checkConservation(t, a)
	a.Free(id3)

	// A different prefix key shares nothing.
	id4, hits, _, ok := a.Alloc(8, 0xdef, 8)
	if !ok || hits != 0 {
		t.Fatalf("foreign prefix hit: hits %d", hits)
	}
	a.Free(id4)
	checkConservation(t, a)
}

func TestIdleLRUEvictionOrder(t *testing.T) {
	// 4 blocks of 4 tokens, prefix caching on. Park two single-block
	// prefixes idle, then exhaust memory: the oldest idle block must be
	// evicted first (its prefix stops hitting; the newer one survives).
	a := NewAllocator(4, 4, true)
	idA, _, _, _ := a.Alloc(4, 0xa, 4)
	a.Free(idA) // block for prefix A idles first (LRU-oldest)
	idB, _, _, _ := a.Alloc(4, 0xb, 4)
	a.Free(idB) // prefix B idles second
	if a.IdleBlocks() != 2 || a.FreeBlocks() != 2 {
		t.Fatalf("setup: idle %d free %d", a.IdleBlocks(), a.FreeBlocks())
	}
	// Claim three blocks: two from free, the third must evict prefix A.
	id, _, _, ok := a.Alloc(12, 0, 0)
	if !ok {
		t.Fatal("eviction alloc failed")
	}
	checkConservation(t, a)
	if hitsB := probeHits(a, 0xb, 1); hitsB != 1 {
		t.Fatalf("newer idle prefix evicted (hits %d)", hitsB)
	}
	if hitsA := probeHits(a, 0xa, 1); hitsA != 0 {
		t.Fatalf("oldest idle prefix survived eviction (hits %d)", hitsA)
	}
	a.Free(id)
}

// probeHits counts resident prefix blocks without mutating state, via
// a failed alloc... actually via lookup directly (same package).
func probeHits(a *Allocator, prefixKey uint64, blocks int) int {
	n := 0
	for i := 0; i < blocks; i++ {
		if a.lookup(blockKey(prefixKey, i)) != nilBlock {
			n++
		}
	}
	return n
}

func TestResetReturnsEverything(t *testing.T) {
	a := NewAllocator(8, 4, true)
	a.Alloc(16, 0x1, 8)
	id, _, _, _ := a.Alloc(8, 0x2, 8)
	a.Free(id)
	a.Reset()
	if a.FreeBlocks() != 8 || a.IdleBlocks() != 0 || a.InUse() != 0 {
		t.Fatalf("after reset: free %d idle %d inuse %d", a.FreeBlocks(), a.IdleBlocks(), a.InUse())
	}
	if probeHits(a, 0x1, 2)+probeHits(a, 0x2, 2) != 0 {
		t.Fatal("prefix index survived reset")
	}
	// Full capacity is allocatable again.
	if _, _, _, ok := a.Alloc(32, 0, 0); !ok {
		t.Fatal("post-reset full alloc failed")
	}
	checkConservation(t, a)
}

// TestRandomOpsConservation drives long random op sequences, checking
// the conservation invariant after every single operation. Run under
// -count=2 -race -shuffle=on in CI, where any hidden global state or
// order dependence would flake.
func TestRandomOpsConservation(t *testing.T) {
	for _, prefix := range []bool{false, true} {
		rng := mathx.NewRNG(42)
		a := NewAllocator(64, 16, prefix)
		var live []SeqID
		for op := 0; op < 5000; op++ {
			switch {
			case len(live) > 0 && rng.Uint64()%3 == 0:
				i := int(rng.Uint64() % uint64(len(live)))
				a.Free(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case len(live) > 0 && rng.Uint64()%2 == 0:
				a.Grow(live[int(rng.Uint64()%uint64(len(live)))])
			default:
				tokens := 1 + int(rng.Uint64()%200)
				key := rng.Uint64() % 4
				ptoks := int(rng.Uint64() % uint64(tokens+1))
				if id, _, _, ok := a.Alloc(tokens, key, ptoks); ok {
					live = append(live, id)
				}
			}
			checkConservation(t, a)
		}
		for _, id := range live {
			a.Free(id)
			checkConservation(t, a)
		}
		if a.InUse() != 0 {
			t.Fatalf("leak: %d blocks in use after freeing all", a.InUse())
		}
	}
}

// TestDeterministicReplay pins that two allocators fed the identical
// op sequence evolve identically — the property -count=2 exercises at
// the process level.
func TestDeterministicReplay(t *testing.T) {
	run := func() (sig uint64) {
		rng := mathx.NewRNG(7)
		a := NewAllocator(32, 8, true)
		var live []SeqID
		for op := 0; op < 2000; op++ {
			if len(live) > 0 && rng.Uint64()%3 == 0 {
				i := int(rng.Uint64() % uint64(len(live)))
				a.Free(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				tokens := 1 + int(rng.Uint64()%64)
				if id, hits, _, ok := a.Alloc(tokens, rng.Uint64()%3, tokens); ok {
					live = append(live, id)
					sig = sig*31 + uint64(id) + uint64(hits)<<16
				}
			}
			sig = sig*31 + uint64(a.FreeBlocks()) + uint64(a.IdleBlocks())<<20
		}
		return sig
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("replay diverged: %x vs %x", a, b)
	}
}

// TestSteadyStateAllocFree pins the zero-alloc contract: after warmup,
// Alloc/Grow/Extend/Fits/Free cycles perform no heap allocations.
func TestSteadyStateAllocFree(t *testing.T) {
	a := NewAllocator(64, 16, true)
	// Warm up every code path: cache fills, idle list cycles, table
	// inserts/removes, sequence slots recycle.
	for i := 0; i < 10; i++ {
		id1, _, _, _ := a.Alloc(100, uint64(i%3+1), 64)
		id2, _, _, _ := a.Alloc(50, uint64(i%3+1), 48)
		a.Grow(id1)
		a.Free(id1)
		a.Free(id2)
	}
	allocs := testing.AllocsPerRun(200, func() {
		id1, _, _, _ := a.Alloc(100, 1, 64)
		id2, _, _, _ := a.Alloc(50, 2, 48)
		for i := 0; i < 20; i++ {
			a.Grow(id1)
		}
		a.Extend(id2, a.Slack(id2))
		a.Extend(id2, 20)
		if !a.Fits(30, 3, 16, 2) {
			panic("no room for a 30-token sequence")
		}
		a.Free(id1)
		a.Free(id2)
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocator allocated %.1f times per cycle, want 0", allocs)
	}
}

// TestHandOutOrder pins which block and which handle each claim gets:
// block 0 first, reclaimed blocks reused LIFO before any never-used
// one, and the same for sequence slots — the order a stack pre-filled
// with every block would give — and the same again after Reset.
func TestHandOutOrder(t *testing.T) {
	a := NewAllocator(8, 4, false)
	for round := 0; round < 2; round++ {
		id0, _, _, _ := a.Alloc(12, 0, 0) // blocks 0, 1, 2
		id1, _, _, _ := a.Alloc(4, 0, 0)  // block 3
		if id0 != 0 || id1 != 1 {
			t.Fatalf("round %d: handles %d, %d; want 0, 1", round, id0, id1)
		}
		a.Free(id0) // pushes 0, 1, 2
		id2, _, _, _ := a.Alloc(16, 0, 0)
		if id2 != 0 {
			t.Fatalf("round %d: reused handle %d, want 0", round, id2)
		}
		if got, want := a.seqs[id2].blocks, []int32{2, 1, 0, 4}; !slices.Equal(got, want) {
			t.Fatalf("round %d: blocks %v, want %v", round, got, want)
		}
		id3, _, _, _ := a.Alloc(4, 0, 0)
		if id3 != 2 || a.seqs[id3].blocks[0] != 5 {
			t.Fatalf("round %d: handle %d block %d, want handle 2 block 5", round, id3, a.seqs[id3].blocks[0])
		}
		a.Reset()
	}
}

// TestAllocatorMemoryFollowsUse pins that an allocator's memory follows
// the blocks it hands out, not its budget: a million-block pool that
// only ever holds a few hundred blocks must cost well under a megabyte.
func TestAllocatorMemoryFollowsUse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := NewAllocator(1<<20, 16, true)
	for cycle := 0; cycle < 4; cycle++ {
		var ids [8]SeqID
		for j := range ids {
			id, _, _, ok := a.Alloc(500, uint64(j%3+1), 256)
			if !ok {
				t.Fatal("admission failed with ample blocks")
			}
			ids[j] = id
		}
		for _, id := range ids {
			for g := 0; g < 40; g++ {
				a.Grow(id)
			}
		}
		for _, id := range ids {
			a.Free(id)
		}
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(a)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("a %d-block allocator holding ≤%d blocks allocated %d bytes, want < 1 MiB",
			a.Total(), len(a.refs), d)
	}
}
