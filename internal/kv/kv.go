// Package kv models KV-cache memory as a first-class simulated
// resource: a deterministic, allocation-free paged block allocator in
// the style of vLLM's PagedAttention.
//
// Each serving instance owns one Allocator over a fixed budget of
// fixed-size blocks (BlockTokens tokens each), sized by internal/serve
// from the GPU's HBM capacity net of model weights and the model's
// KV-bytes/token at the instance's tensor-parallel degree. Sequences
// allocate blocks at admission, grow one block per BlockTokens decoded
// tokens, and free on completion; when the pool runs dry the scheduler
// preempts (see Policy). With PrefixCache set, the leading full blocks
// of a request's shared prefix are content-addressed by hash: freed
// prefix blocks park in an idle LRU instead of the free stack and later
// requests with the same prefix re-reference them instead of
// reallocating.
//
// The zero-value Config disables the memory model entirely — the
// historical infinite-memory behavior, byte-identical to every golden
// corpus captured before this package existed.
//
// The allocator's bookkeeping grows with use, not with the budget:
// per-block arrays, the prefix index and the sequence table grow to
// the high-water mark of blocks and sequences actually handed out, so
// an allocator built over an HBM-derived budget of tens of thousands
// of blocks costs only what its working set touches.
//
// Determinism and allocation discipline follow the repo invariants
// (docs/correctness.md): no maps (the prefix index is an open-addressed
// table with backward-shift deletion), no wall clock, no global rand,
// and the steady-state operations (Alloc, Grow, Extend, Free) are
// //litegpu:hotpath-annotated and AllocsPerRun-pinned at zero once
// warm-up has grown the arrays to the working set's high-water mark.
package kv

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Policy selects what the scheduler does when a decode step needs a KV
// block and the allocator has none: nothing (Off — the infinite-memory
// zero value), drop the victim's blocks and re-run its prefill
// (Recompute), or move the victim's blocks out and back over the
// fabric (Swap).
type Policy int

const (
	// Off disables the KV memory model: admission is gated by the batch
	// caps alone and no blocks are tracked. The zero value.
	Off Policy = iota
	// Recompute frees a preempted sequence's blocks outright and
	// re-runs its prefill (prompt plus already-generated tokens) when
	// capacity frees up — vLLM's default recovery.
	Recompute
	// Swap moves a preempted sequence's blocks to remote memory and
	// back, priced as a fabric transfer when the network is in the
	// event loop (instantaneous otherwise); no compute is re-run.
	Swap
)

// String returns the policy's CLI name.
func (p Policy) String() string {
	switch p {
	case Recompute:
		return "recompute"
	case Swap:
		return "swap"
	default:
		return "off"
	}
}

// Config parameterizes the per-instance KV memory model. The zero
// value keeps the historical infinite-memory semantics byte-identical.
type Config struct {
	// Policy enables the model and selects the preemption recovery
	// discipline. Off (the zero value) disables block accounting.
	Policy Policy
	// BlockTokens is the page size in tokens (default 16, vLLM's
	// default).
	BlockTokens int
	// PrefixCache enables hash-based prefix caching: the leading full
	// blocks of a request's declared shared prefix are ref-count-shared
	// across sequences and survive frees in an idle LRU.
	PrefixCache bool
	// Blocks overrides the per-instance block budget (0 = derive from
	// HBM capacity net of model weights).
	Blocks int
}

// Enabled reports whether the KV memory model is on.
func (c Config) Enabled() bool { return c.Policy != Off }

// Validate reports the first configuration problem, or nil.
func (c Config) Validate() error {
	if c.Policy < Off || c.Policy > Swap {
		return fmt.Errorf("kv: unknown policy %d", int(c.Policy))
	}
	if c.BlockTokens < 0 {
		return fmt.Errorf("kv: negative BlockTokens %d", c.BlockTokens)
	}
	if c.Blocks < 0 {
		return fmt.Errorf("kv: negative Blocks %d", c.Blocks)
	}
	if c.Blocks > math.MaxInt32 {
		return fmt.Errorf("kv: Blocks %d overflows int32 block ids (max %d)", c.Blocks, math.MaxInt32)
	}
	if !c.Enabled() && (c.BlockTokens != 0 || c.PrefixCache || c.Blocks != 0) {
		return fmt.Errorf("kv: block parameters set but Policy is off")
	}
	return nil
}

// String renders the config as its CLI spec: "off" or
// "policy[+prefix]".
func (c Config) String() string {
	if !c.Enabled() {
		return "off"
	}
	s := c.Policy.String()
	if c.PrefixCache {
		s += "+prefix"
	}
	return s
}

// ParseConfig parses a CLI KV spec: "off", or "policy[+prefix]" with
// policy ∈ {recompute, swap}. BlockTokens and Blocks keep their
// defaults; set them on the returned Config directly when needed.
func ParseConfig(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" || spec == "none" {
		return c, nil
	}
	parts := strings.Split(spec, "+")
	switch parts[0] {
	case "recompute":
		c.Policy = Recompute
	case "swap":
		c.Policy = Swap
	default:
		return Config{}, fmt.Errorf("kv: unknown policy %q (want off, recompute, or swap)", parts[0])
	}
	for _, p := range parts[1:] {
		switch p {
		case "prefix":
			c.PrefixCache = true
		default:
			return Config{}, fmt.Errorf("kv: unknown option %q (want prefix)", p)
		}
	}
	return c, nil
}

// DefaultPolicyCandidates returns the KV policies the capacity planner
// crosses when asked to search the memory axis: the historical
// infinite-memory baseline, and both preemption disciplines with
// prefix caching on.
func DefaultPolicyCandidates() []Config {
	return []Config{
		{},
		{Policy: Recompute, PrefixCache: true},
		{Policy: Swap, PrefixCache: true},
	}
}

// BlockTokensOrDefault resolves the page size.
func (c Config) BlockTokensOrDefault() int {
	if c.BlockTokens > 0 {
		return c.BlockTokens
	}
	return 16
}

// SeqID is a handle to a live sequence's block set. Handles are
// recycled after Free; using a freed handle panics.
type SeqID int32

const nilBlock int32 = -1

// seqState is one sequence's allocation: its block list (retained
// across handle reuse so steady state never allocates), its token
// count, and liveness.
type seqState struct {
	blocks []int32
	tokens int
	live   bool
}

// Allocator is one instance's paged KV block pool. Per-block state
// lives in arrays indexed by block number that grow to the high-water
// mark — the count of blocks ever handed out — rather than to the
// budget: like PagedAttention mapping physical blocks on demand, a
// block costs bookkeeping only once a sequence first claims it. The
// prefix index is an open-addressed hash table (linear probing,
// backward-shift deletion) and no Go map is ever iterated or probed,
// so operation is deterministic; once the arrays have reached the
// working set's high-water mark, operation performs zero heap
// allocations.
//
// Blocks are handed out in a fixed order: reclaimed blocks (LIFO)
// first, then the never-used block numbered at the high-water mark,
// then the oldest idle cached block.
//
// Block accounting invariant, checked by the property tests after
// every operation: free + idle + in-use == total, where free blocks
// are reclaimed or never used, idle blocks are cached prefix blocks
// with refcount zero (reclaimable, LRU) and in-use blocks have
// refcount ≥ 1 (possibly shared across sequences).
type Allocator struct {
	blockTokens int
	prefix      bool
	total       int

	// Per-block state for blocks [0, high-water mark); every array has
	// the mark as its length.
	refs    []int32  // per-block reference count
	hashes  []uint64 // per-block content key (0 = uncached)
	inCache []bool   // per-block: key present in the prefix index
	next    []int32  // idle-LRU forward links (toward tail)
	prev    []int32  // idle-LRU backward links (toward head)

	free      []int32 // reclaimed never-cached blocks, LIFO
	idleHead  int32   // oldest idle cached block (evicted first)
	idleTail  int32   // most recently idled cached block
	idleCount int

	// Open-addressed prefix index: key → block, present only with
	// prefix caching on. Power-of-two sized at ≥2× the high-water mark
	// so load factor stays at most one half.
	tabKeys []uint64
	tabVals []int32
	tabMask uint64

	// Sequence slots grow to their own high-water mark the same way;
	// freeSeqs holds only released slots.
	seqs     []seqState
	freeSeqs []int32
}

// minIndex is the prefix index's initial size.
const minIndex = 8

// NewAllocator builds an allocator over `blocks` blocks of
// `blockTokens` tokens each. prefixCache enables the content-addressed
// prefix index. Panics on a non-positive budget or page size, or a
// budget beyond int32 block ids — internal/serve validates sizing
// before construction.
func NewAllocator(blocks, blockTokens int, prefixCache bool) *Allocator {
	if blocks <= 0 || blockTokens <= 0 {
		panic("kv: NewAllocator needs positive blocks and blockTokens")
	}
	if blocks > math.MaxInt32 {
		panic("kv: NewAllocator budget overflows int32 block ids")
	}
	a := &Allocator{
		blockTokens: blockTokens,
		prefix:      prefixCache,
		total:       blocks,
		idleHead:    nilBlock,
		idleTail:    nilBlock,
	}
	if prefixCache {
		a.tabKeys = make([]uint64, minIndex)
		a.tabVals = make([]int32, minIndex)
		a.tabMask = minIndex - 1
	}
	return a
}

// Reset returns every block to the pool and kills every sequence — the
// instance-failure path (a dead instance's HBM content is gone). It
// rewinds both high-water marks to zero, so the next block handed out
// is block 0 and the next handle is 0: allocation order is part of the
// deterministic contract. Backing arrays, including the block lists
// inside sequence slots, are retained so post-reset operation stays
// allocation-free.
func (a *Allocator) Reset() {
	a.refs = a.refs[:0]
	a.hashes = a.hashes[:0]
	a.inCache = a.inCache[:0]
	a.next = a.next[:0]
	a.prev = a.prev[:0]
	a.free = a.free[:0]
	a.idleHead, a.idleTail, a.idleCount = nilBlock, nilBlock, 0
	clear(a.tabKeys)
	clear(a.tabVals)
	a.seqs = a.seqs[:0]
	a.freeSeqs = a.freeSeqs[:0]
}

// Accessors ------------------------------------------------------------------

// Total returns the block budget.
func (a *Allocator) Total() int { return a.total }

// BlockTokens returns the page size in tokens.
func (a *Allocator) BlockTokens() int { return a.blockTokens }

// FreeBlocks returns the count of uncached reclaimable blocks: the
// reclaimed ones plus those never handed out.
//
//litegpu:hotpath
func (a *Allocator) FreeBlocks() int { return len(a.free) + a.unused() }

// unused returns the count of blocks never handed out since
// construction or the last Reset.
//
//litegpu:hotpath
func (a *Allocator) unused() int { return a.total - len(a.refs) }

// IdleBlocks returns the count of cached blocks with refcount zero
// (reclaimable by LRU eviction).
func (a *Allocator) IdleBlocks() int { return a.idleCount }

// InUse returns the count of blocks referenced by at least one live
// sequence.
//
//litegpu:hotpath
func (a *Allocator) InUse() int { return len(a.refs) - len(a.free) - a.idleCount }

// SeqTokens returns a live sequence's token count.
func (a *Allocator) SeqTokens(id SeqID) int {
	s := &a.seqs[id]
	if !s.live {
		panic("kv: SeqTokens on a freed sequence")
	}
	return s.tokens
}

// SeqBlocks returns a live sequence's block count.
func (a *Allocator) SeqBlocks(id SeqID) int {
	s := &a.seqs[id]
	if !s.live {
		panic("kv: SeqBlocks on a freed sequence")
	}
	return len(s.blocks)
}

// Hashing --------------------------------------------------------------------

// mix is the splitmix64 finalizer — the block content keys' hash.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// blockKey derives the content key of prefix block i of a shared
// prefix. Key 0 is the table's empty sentinel, so keys are coerced
// nonzero.
func blockKey(prefixKey uint64, i int) uint64 {
	k := mix(prefixKey + uint64(i)*0x9e3779b97f4a7c15)
	if k == 0 {
		k = 1
	}
	return k
}

// Prefix index ---------------------------------------------------------------

// lookup returns the block cached under key, or nilBlock.
//
//litegpu:hotpath
func (a *Allocator) lookup(key uint64) int32 {
	i := mix(key) & a.tabMask
	for {
		switch a.tabKeys[i] {
		case key:
			return a.tabVals[i]
		case 0:
			return nilBlock
		}
		i = (i + 1) & a.tabMask
	}
}

// insert records key → block. The table is sized at ≥2× the blocks
// handed out and every cached block holds exactly one key, so it never
// fills.
//
//litegpu:hotpath
func (a *Allocator) insert(key uint64, b int32) {
	i := mix(key) & a.tabMask
	for a.tabKeys[i] != 0 {
		i = (i + 1) & a.tabMask
	}
	a.tabKeys[i] = key
	a.tabVals[i] = b
}

// remove deletes key from the table with backward-shift deletion, so
// probe chains stay tombstone-free (tombstones would make probe length
// — and thus allocation-free operation — degrade over a long run).
//
//litegpu:hotpath
func (a *Allocator) remove(key uint64) {
	i := mix(key) & a.tabMask
	for a.tabKeys[i] != key {
		if a.tabKeys[i] == 0 {
			return
		}
		i = (i + 1) & a.tabMask
	}
	// Backward-shift: close the gap by moving displaced entries up.
	j := i
	for {
		j = (j + 1) & a.tabMask
		if a.tabKeys[j] == 0 {
			break
		}
		home := mix(a.tabKeys[j]) & a.tabMask
		// Entry j may move into slot i iff its home position does not lie
		// (cyclically) strictly between i and j.
		if (j-home)&a.tabMask >= (j-i)&a.tabMask {
			a.tabKeys[i] = a.tabKeys[j]
			a.tabVals[i] = a.tabVals[j]
			i = j
		}
	}
	a.tabKeys[i] = 0
	a.tabVals[i] = 0
}

// Idle LRU -------------------------------------------------------------------

// pushIdle parks a cached block at the LRU tail (most recently used).
//
//litegpu:hotpath
func (a *Allocator) pushIdle(b int32) {
	a.prev[b] = a.idleTail
	a.next[b] = nilBlock
	if a.idleTail != nilBlock {
		a.next[a.idleTail] = b
	} else {
		a.idleHead = b
	}
	a.idleTail = b
	a.idleCount++
}

// unlinkIdle removes a block from anywhere in the idle LRU.
//
//litegpu:hotpath
func (a *Allocator) unlinkIdle(b int32) {
	if a.prev[b] != nilBlock {
		a.next[a.prev[b]] = a.next[b]
	} else {
		a.idleHead = a.next[b]
	}
	if a.next[b] != nilBlock {
		a.prev[a.next[b]] = a.prev[b]
	} else {
		a.idleTail = a.prev[b]
	}
	a.next[b] = nilBlock
	a.prev[b] = nilBlock
	a.idleCount--
}

// obtain claims a reclaimable block: the most recently reclaimed one
// first, then the never-used block at the high-water mark, then the
// oldest idle cached block (evicting its cache entry). Returns
// nilBlock when nothing is reclaimable.
//
//litegpu:hotpath
func (a *Allocator) obtain() int32 {
	if n := len(a.free); n > 0 {
		b := a.free[n-1]
		a.free = a.free[:n-1]
		return b
	}
	if a.unused() > 0 {
		return a.handOut()
	}
	b := a.idleHead
	if b == nilBlock {
		return nilBlock
	}
	a.unlinkIdle(b)
	a.remove(a.hashes[b])
	a.hashes[b] = 0
	a.inCache[b] = false
	return b
}

// handOut raises the high-water mark by one block and returns the
// block it uncovers, doubling the prefix index first if the new mark
// would push its load factor past one half.
//
//litegpu:hotpath
func (a *Allocator) handOut() int32 {
	b := int32(len(a.refs))
	if len(a.refs) == cap(a.refs) {
		a.reserve()
	}
	a.refs = append(a.refs, 0)
	a.hashes = append(a.hashes, 0)
	a.inCache = append(a.inCache, false)
	a.next = append(a.next, nilBlock)
	a.prev = append(a.prev, nilBlock)
	if a.prefix && 2*len(a.refs) > len(a.tabKeys) {
		a.growIndex()
	}
	return b
}

// minReserve is the per-block arrays' first capacity.
const minReserve = 16

// reserve doubles the per-block arrays' capacity, capped at the
// budget. Explicit doubling keeps warm-up to a logarithmic number of
// allocations, where append's gentler growth past 256 elements would
// take several times more.
func (a *Allocator) reserve() {
	n := min(a.total, max(2*cap(a.refs), minReserve)) - len(a.refs)
	a.refs = slices.Grow(a.refs, n)
	a.hashes = slices.Grow(a.hashes, n)
	a.inCache = slices.Grow(a.inCache, n)
	a.next = slices.Grow(a.next, n)
	a.prev = slices.Grow(a.prev, n)
}

// growIndex doubles the prefix index, reinserting its entries in slot
// order. Lookups depend only on which keys are present, never on where
// they sit, so growth changes no result.
func (a *Allocator) growIndex() {
	keys, vals := a.tabKeys, a.tabVals
	size := 2 * len(keys)
	a.tabKeys = make([]uint64, size)
	a.tabVals = make([]int32, size)
	a.tabMask = uint64(size - 1)
	for i, k := range keys {
		if k != 0 {
			a.insert(k, vals[i])
		}
	}
}

// newSeq claims a sequence slot: the most recently released one
// first, then a never-used one at the slot high-water mark (keeping
// the block list a slot held before a Reset). Returns false when every
// one of the `total` slots is live.
//
//litegpu:hotpath
func (a *Allocator) newSeq() (SeqID, bool) {
	if n := len(a.freeSeqs); n > 0 {
		id := a.freeSeqs[n-1]
		a.freeSeqs = a.freeSeqs[:n-1]
		return SeqID(id), true
	}
	n := len(a.seqs)
	switch {
	case n == a.total:
		return 0, false
	case n < cap(a.seqs):
		a.seqs = a.seqs[:n+1]
	default:
		a.seqs = append(a.seqs, seqState{})
	}
	return SeqID(n), true
}

// Operations -----------------------------------------------------------------

// shape is the start of Alloc's phase 1: the block count nb of a
// sequence of tokens tokens, and how many of its leading blocks the
// shared prefix makes cacheable.
//
//litegpu:hotpath
func (a *Allocator) shape(tokens int, prefixKey uint64, prefixTokens int) (nb, cacheable int) {
	if tokens <= 0 {
		panic("kv: Alloc of a non-positive token count")
	}
	nb = (tokens + a.blockTokens - 1) / a.blockTokens
	if a.prefix && prefixKey != 0 && prefixTokens > 0 {
		cacheable = min(min(prefixTokens, tokens)/a.blockTokens, nb)
	}
	return nb, cacheable
}

// resident is the rest of Alloc's phase 1, which changes no state
// either: how many of a prefix's first cacheable blocks are resident
// (hits), and how many of those sit idle. Claiming an idle hit consumes
// idle capacity that eviction can then no longer reclaim.
//
//litegpu:hotpath
func (a *Allocator) resident(prefixKey uint64, cacheable int) (hits, idleHits int) {
	for i := 0; i < cacheable; i++ {
		b := a.lookup(blockKey(prefixKey, i))
		if b == nilBlock {
			continue
		}
		hits++
		if a.refs[b] == 0 {
			idleHits++
		}
	}
	return hits, idleHits
}

// reclaimable returns the blocks a claim may take: free, never used,
// and idle cached ones.
//
//litegpu:hotpath
func (a *Allocator) reclaimable() int { return len(a.free) + a.unused() + a.idleCount }

// Fits reports whether Alloc(tokens, prefixKey, prefixTokens) would
// succeed once claimed more blocks have been taken from FreeBlocks, as
// growth that extends live sequences takes them (see Extend); claims
// FreeBlocks cannot cover never fit. It runs Alloc's phase 1 and
// changes no state; it looks the prefix up only when the answer hangs
// on how many of its blocks are live hits, which cost no free block.
//
//litegpu:hotpath
func (a *Allocator) Fits(tokens int, prefixKey uint64, prefixTokens, claimed int) bool {
	nb, cacheable := a.shape(tokens, prefixKey, prefixTokens)
	if len(a.freeSeqs) == 0 && len(a.seqs) == a.total || claimed > a.FreeBlocks() {
		return false // no sequence slot for newSeq, or claims it cannot cover
	}
	short := nb + claimed - a.reclaimable()
	if short <= 0 || short > cacheable {
		return short <= 0
	}
	hits, idleHits := a.resident(prefixKey, cacheable)
	return short <= hits-idleHits
}

// Alloc reserves blocks for a sequence of `tokens` tokens whose
// leading prefixTokens tokens belong to the shared prefix identified
// by prefixKey (0 = no shared prefix). With prefix caching enabled,
// leading full prefix blocks already resident are re-referenced
// instead of allocated.
//
// On success it returns the sequence handle plus the cache-hit and
// lookup counts for the caller's hit-rate metric. On failure (the
// residual demand exceeds reclaimable capacity) it returns ok=false
// with the allocator state untouched — admission gating relies on
// failed Allocs being free of side effects.
//
//litegpu:hotpath
func (a *Allocator) Alloc(tokens int, prefixKey uint64, prefixTokens int) (id SeqID, hits, lookups int, ok bool) {
	nb, cacheable := a.shape(tokens, prefixKey, prefixTokens)
	hits, idleHits := a.resident(prefixKey, cacheable)
	lookups = cacheable
	if nb-hits > a.reclaimable()-idleHits {
		return 0, hits, lookups, false
	}

	id, ok = a.newSeq()
	if !ok {
		// Prefix sharing can pack more live sequences than blocks (many
		// one-block sequences on one shared block); a full sequence table
		// is memory pressure like any other, so admission fails cleanly.
		return 0, hits, lookups, false
	}
	s := &a.seqs[id]
	s.blocks = s.blocks[:0]
	s.tokens = tokens
	s.live = true

	// Phase 2a: claim the hits first, so phase 2b's evictions can never
	// reclaim a block this very sequence is about to share.
	for i := 0; i < nb; i++ {
		b := nilBlock
		if i < cacheable {
			b = a.lookup(blockKey(prefixKey, i))
		}
		if b != nilBlock {
			if a.refs[b] == 0 {
				a.unlinkIdle(b)
			}
			a.refs[b]++
		}
		s.blocks = append(s.blocks, b)
	}
	// Phase 2b: allocate the misses. New prefix-range blocks enter the
	// index immediately so concurrent same-prefix admissions share them.
	for i := 0; i < nb; i++ {
		if s.blocks[i] != nilBlock {
			continue
		}
		b := a.obtain()
		if b == nilBlock {
			// Unreachable: phase 1 verified capacity and phase 2a only
			// removed idle blocks it turned into (uncountable) hits.
			panic("kv: capacity check violated")
		}
		a.refs[b] = 1
		if i < cacheable {
			key := blockKey(prefixKey, i)
			if a.lookup(key) == nilBlock {
				a.hashes[b] = key
				a.inCache[b] = true
				a.insert(key, b)
			}
		}
		s.blocks[i] = b
	}
	return id, hits, lookups, true
}

// Grow extends a live sequence by one token, claiming a fresh block
// when the current ones are full. Returns false — with no state
// change — when a block is needed and nothing is reclaimable; the
// caller preempts and retries.
//
//litegpu:hotpath
func (a *Allocator) Grow(id SeqID) bool {
	s := &a.seqs[id]
	if !s.live {
		panic("kv: Grow on a freed sequence")
	}
	if s.tokens < len(s.blocks)*a.blockTokens {
		s.tokens++
		return true
	}
	b := a.obtain()
	if b == nilBlock {
		return false
	}
	a.refs[b] = 1 // generated tokens are sequence-private, never cached
	s.blocks = append(s.blocks, b)
	s.tokens++
	return true
}

// Slack returns how many tokens a live sequence can still grow by
// without claiming a block: its blocks' capacity less its tokens.
//
//litegpu:hotpath
func (a *Allocator) Slack(id SeqID) int {
	s := &a.seqs[id]
	if !s.live {
		panic("kv: Slack on a freed sequence")
	}
	return len(s.blocks)*a.blockTokens - s.tokens
}

// Extend grows a live sequence by n tokens, as n Grows would, taking
// a block from FreeBlocks at each block boundary; it never evicts an
// idle cached block. It panics, changing nothing, on a negative n or
// when the growth needs more blocks than FreeBlocks: a caller extends
// only by growth it has already counted against the free blocks.
//
//litegpu:hotpath
func (a *Allocator) Extend(id SeqID, n int) {
	s := &a.seqs[id]
	if !s.live {
		panic("kv: Extend on a freed sequence")
	}
	if n < 0 {
		panic("kv: Extend by a negative token count")
	}
	claims := (s.tokens+n+a.blockTokens-1)/a.blockTokens - len(s.blocks)
	if claims > a.FreeBlocks() {
		panic("kv: Extend past the free blocks")
	}
	for ; claims > 0; claims-- {
		b := a.obtain()
		a.refs[b] = 1 // generated tokens are sequence-private, never cached
		s.blocks = append(s.blocks, b)
	}
	s.tokens += n
}

// Free releases a sequence's references. Blocks reaching refcount
// zero return to the free stack, or — cached prefix blocks — park in
// the idle LRU awaiting a future hit or eviction. Double-frees and
// negative refcounts panic: they are simulator bugs, not recoverable
// conditions.
//
//litegpu:hotpath
func (a *Allocator) Free(id SeqID) {
	s := &a.seqs[id]
	if !s.live {
		panic("kv: double free")
	}
	for _, b := range s.blocks {
		a.refs[b]--
		if a.refs[b] < 0 {
			panic("kv: negative refcount")
		}
		if a.refs[b] > 0 {
			continue
		}
		if a.inCache[b] {
			a.pushIdle(b)
		} else {
			a.free = append(a.free, b)
		}
	}
	s.blocks = s.blocks[:0]
	s.tokens = 0
	s.live = false
	a.freeSeqs = append(a.freeSeqs, int32(id))
}
