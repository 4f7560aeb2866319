package obs

import "math/bits"

// idIndex maps tracked request ids to reservoir slots. It is an
// open-addressed table with linear probing, sized once to a power of
// two at least four times the reservoir, and it never grows: every
// entry names a slot holding that id, so at most one entry per slot is
// live and the table stays at most a quarter full. Most lookups are
// misses, for requests the reservoir did not sample; by Knuth's
// estimate for linear probing, a miss at that load takes about 1.4
// probes, against 2.5 at half full. Ids are arbitrary caller-supplied integers (retry ids are
// negative), so no id value is reserved; an empty bucket is one whose
// ref is 0.
type idIndex struct {
	buckets []bucket
	shift   uint // 64 - log2(len(buckets))
}

type bucket struct {
	id  int64
	ref int32 // slot + 1; 0 marks an empty bucket
}

func newIDIndex(slots int) idIndex {
	lg := bits.Len(uint(4*slots - 1)) // smallest power of two ≥ 4·slots
	return idIndex{buckets: make([]bucket, 1<<lg), shift: uint(64 - lg)}
}

// home is id's first bucket: a Fibonacci hash, so consecutive ids
// spread over the table.
func (x *idIndex) home(id int64) int {
	return int(uint64(id) * 0x9e3779b97f4a7c15 >> x.shift)
}

// find returns the bucket holding id or, when id is not tracked, the
// empty bucket that ends id's probe run, where a put of id goes.
//
//litegpu:hotpath
func (x *idIndex) find(id int64) int {
	mask := len(x.buckets) - 1
	i := x.home(id)
	for x.buckets[i].ref != 0 && x.buckets[i].id != id {
		i = (i + 1) & mask
	}
	return i
}

// get returns id's slot, or -1 when id is not tracked.
//
//litegpu:hotpath
func (x *idIndex) get(id int64) int32 {
	return x.buckets[x.find(id)].ref - 1
}

// put maps id to slot, replacing any slot id already maps to.
//
//litegpu:hotpath
func (x *idIndex) put(id int64, slot int32) {
	b := &x.buckets[x.find(id)]
	b.id, b.ref = id, slot+1
}

// del removes id, if present. It shifts later entries of the probe run
// back into the hole rather than leaving a tombstone, so every lookup
// still ends at the first empty bucket: an entry moves into the hole
// when the hole lies between its home bucket and where it sits.
//
//litegpu:hotpath
func (x *idIndex) del(id int64) {
	hole := x.find(id)
	if x.buckets[hole].ref == 0 {
		return
	}
	mask := len(x.buckets) - 1
	for i := (hole + 1) & mask; x.buckets[i].ref != 0; i = (i + 1) & mask {
		if (i-x.home(x.buckets[i].id))&mask >= (i-hole)&mask {
			x.buckets[hole] = x.buckets[i]
			hole = i
		}
	}
	x.buckets[hole] = bucket{}
}
