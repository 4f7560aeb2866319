package obs

import (
	"math"
	"testing"
)

// fuzzSlots sizes the fuzzed index: a 16-bucket table, so home-bucket
// collisions and wraparound at the table end are the common case.
const fuzzSlots = 4

// Index program opcodes: a program is (op, arg) byte pairs; op%3 picks
// the operation, and op&progFar moves the id to the far end of the
// int64 range.
const (
	progPut = 0
	progGet = 1
	progDel = 2
	progFar = 4
)

// progID is the id an (op, arg) pair names: a small signed id, or with
// progFar, the same id with its top bit flipped.
func progID(op, arg byte) int64 {
	id := int64(int8(arg))
	if op&progFar != 0 {
		id ^= math.MinInt64
	}
	return id
}

// argsAt returns the args whose near ids have home bucket h.
func argsAt(h int) []byte {
	x := newIDIndex(fuzzSlots)
	var args []byte
	for a := 0; a < 256; a++ {
		if x.home(progID(progPut, byte(a))) == h {
			args = append(args, byte(a))
		}
	}
	return args
}

// FuzzRecorderIndex runs put/get/del programs against the id index and
// a Go map in lockstep. The recorder never tracks more ids than it has
// slots, so a put of a new id is skipped while fuzzSlots ids are held.
// After every operation each id the map holds must be found with its
// slot, and the table must hold exactly the map's entries.
func FuzzRecorderIndex(f *testing.F) {
	last := len(newIDIndex(fuzzSlots).buckets) - 1
	a, b := argsAt(3), argsAt(last)
	zero := argsAt(0)
	// Three ids sharing a home bucket; delete the first and the middle
	// of the run, then reinsert.
	f.Add([]byte{
		progPut, a[0], progPut, a[1], progPut, a[2],
		progGet, a[0], progGet, a[1], progGet, a[2],
		progDel, a[0], progGet, a[1], progGet, a[2], progGet, a[0],
		progPut, a[0], progDel, a[1], progGet, a[2], progGet, a[0],
	})
	// A run homed at the last bucket wraps to the table's start, where
	// an id homed at bucket 0 is displaced; deleting across the wrap
	// must shift both back.
	f.Add([]byte{
		progPut, b[0], progPut, b[1], progPut, zero[0], progPut, b[2],
		progDel, b[0], progGet, b[1], progGet, b[2], progGet, zero[0],
		progDel, b[1], progGet, b[2], progGet, zero[0],
		progPut, b[0], progGet, b[0], progDel, zero[0], progGet, b[2],
	})
	// Delete-then-reinsert chains at full load, with duplicate puts
	// that must overwrite, near and far ids mixed.
	f.Add([]byte{
		progPut, a[0], progPut, a[1], progPut, a[2], progPut, a[3],
		progDel, a[1], progPut, a[1], progPut, a[1], progDel, a[0],
		progDel, a[2], progPut, a[0], progPut | progFar, a[2],
		progDel, a[3], progDel, a[1], progPut, a[3], progGet, a[2],
		progGet | progFar, a[2], progDel | progFar, a[2], progGet, a[0],
	})
	f.Fuzz(func(t *testing.T, prog []byte) {
		x := newIDIndex(fuzzSlots)
		ref := map[int64]int32{}
		for pc := 0; pc+1 < len(prog); pc += 2 {
			op, id := prog[pc], progID(prog[pc], prog[pc+1])
			switch op % 3 {
			case progPut:
				if _, ok := ref[id]; !ok && len(ref) == fuzzSlots {
					continue
				}
				slot := int32(pc / 2)
				x.put(id, slot)
				ref[id] = slot
			case progGet:
				want, ok := ref[id]
				if !ok {
					want = -1
				}
				if got := x.get(id); got != want {
					t.Fatalf("op %d: get(%d) = %d, want %d", pc/2, id, got, want)
				}
			case progDel:
				x.del(id)
				delete(ref, id)
			}
			held := 0
			for _, bk := range x.buckets {
				if bk.ref != 0 {
					held++
				}
			}
			if held != len(ref) {
				t.Fatalf("op %d: table holds %d entries, map holds %d", pc/2, held, len(ref))
			}
			for k, v := range ref {
				if got := x.get(k); got != v {
					t.Fatalf("op %d: get(%d) = %d, want %d", pc/2, k, got, v)
				}
			}
		}
	})
}
