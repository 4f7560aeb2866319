package obs

import (
	"io"
	"sort"
	"strconv"

	"litegpu/internal/mathx"
)

// WriteTrace exports the sampled request timelines and the cluster
// events as Chrome trace_event JSON — the format Perfetto (and
// chrome://tracing) loads directly. The mapping:
//
//   - every pool is a process (pid = pool index + 1), named by
//     SetPoolName;
//   - tid 0 is the pool's frontend (router, admission, queue);
//     instance i is thread tid i+1;
//   - every sampled request is an "X" duration span on the frontend
//     thread from arrival to its last event, plus a flow arrow
//     (ph "s"/"f") from arrival to completion;
//   - prefill passes are "X" spans on the instance that ran them;
//   - every other lifecycle event is an instant ("i") on its
//     instance's thread, named by its Kind.
//
// Output is byte-deterministic: slots render in (arrival, id) order,
// floats render via strconv shortest-round-trip, and no map is ranged.
func (r *Recorder) WriteTrace(w io.Writer) error {
	tw := &traceWriter{}
	tw.buf = append(tw.buf, `{"displayTimeUnit":"ms","traceEvents":[`...)

	order := make([]int, len(r.slots))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := &r.slots[order[a]], &r.slots[order[b]]
		if mathx.ExactNe(sa.arrival, sb.arrival) {
			return sa.arrival < sb.arrival
		}
		return sa.id < sb.id
	})

	// Process/thread metadata for every (pool, inst) the render will
	// touch, deduplicated in first-encounter order.
	seen := make(map[int64]bool)
	var metaPools []int32
	var metaThreads []int64
	note := func(pool, inst int32) {
		pk := int64(pool) << 32
		if !seen[pk] {
			seen[pk] = true
			metaPools = append(metaPools, pool)
		}
		tk := pk | int64(uint32(inst+1)) | 1<<62
		if !seen[tk] {
			seen[tk] = true
			metaThreads = append(metaThreads, int64(pool)<<32|int64(uint32(inst+1)))
		}
	}
	var events []Event // one slot's timeline, gathered from its chain
	for _, si := range order {
		events = r.slots[si].appendEvents(events[:0])
		for _, e := range events {
			note(e.Pool, -1)
			note(e.Pool, e.Inst)
		}
	}
	for _, e := range r.cluster {
		note(e.Pool, e.Inst)
	}
	for _, pool := range metaPools {
		tw.meta("process_name", int(pool)+1, -1, r.poolName(pool))
	}
	for _, th := range metaThreads {
		pool, tid := int32(th>>32), int(uint32(th))
		name := "frontend"
		if tid > 0 {
			name = "instance " + strconv.Itoa(tid-1)
		}
		tw.meta("thread_name", int(pool)+1, tid, name)
	}

	for _, si := range order {
		s := &r.slots[si]
		events = s.appendEvents(events[:0])
		if len(events) == 0 {
			continue
		}
		first, last := events[0], events[len(events)-1]
		reqName := "req " + strconv.FormatInt(s.id, 10)
		// Request lifetime span on the frontend thread.
		tw.span(reqName, "request", int(first.Pool)+1, 0, s.arrival, last.T-s.arrival, s.id)
		// Flow arrow arrival → completion.
		var done *Event
		for i := range events {
			if events[i].Kind == Complete {
				done = &events[i]
			}
		}
		if done != nil {
			tw.flow("s", reqName, int(first.Pool)+1, 0, s.arrival, s.id)
			tw.flow("f", reqName, int(done.Pool)+1, int(done.Inst)+1, done.T, s.id)
		}
		// Prefill spans: each PrefillStart pairs with the next
		// PrefillEnd or Chunk on the same instance.
		for i := range events {
			e := &events[i]
			if e.Kind != PrefillStart {
				continue
			}
			for j := i + 1; j < len(events); j++ {
				f := &events[j]
				if (f.Kind == PrefillEnd || f.Kind == Chunk) && f.Inst == e.Inst {
					tw.span("prefill", "phase", int(e.Pool)+1, int(e.Inst)+1, e.T, f.T-e.T, s.id)
					break
				}
			}
		}
		// Every event as an instant on its thread.
		for i := range events {
			e := &events[i]
			tw.instant(e.Kind.String(), "lifecycle", int(e.Pool)+1, int(e.Inst)+1, e.T, e.Req, e.Val)
		}
	}
	for i := range r.cluster {
		e := &r.cluster[i]
		tw.instant(e.Kind.String(), "cluster", int(e.Pool)+1, int(e.Inst)+1, e.T, e.Req, e.Val)
	}

	tw.buf = append(tw.buf, "]}\n"...)
	_, err := w.Write(tw.buf)
	return err
}

// traceWriter hand-builds trace_event JSON: field order is fixed and
// floats render shortest-round-trip, so output is byte-deterministic.
type traceWriter struct {
	buf   []byte
	first bool
}

func (tw *traceWriter) sep() {
	if tw.first {
		tw.buf = append(tw.buf, ',')
	}
	tw.first = true
}

func (tw *traceWriter) ts(t float64) {
	// trace_event timestamps are microseconds.
	tw.buf = strconv.AppendFloat(tw.buf, t*1e6, 'g', -1, 64)
}

func (tw *traceWriter) meta(kind string, pid, tid int, name string) {
	tw.sep()
	tw.buf = append(tw.buf, `{"ph":"M","name":"`...)
	tw.buf = append(tw.buf, kind...)
	tw.buf = append(tw.buf, `","pid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(pid), 10)
	if tid >= 0 {
		tw.buf = append(tw.buf, `,"tid":`...)
		tw.buf = strconv.AppendInt(tw.buf, int64(tid), 10)
	}
	tw.buf = append(tw.buf, `,"args":{"name":`...)
	tw.buf = strconv.AppendQuote(tw.buf, name)
	tw.buf = append(tw.buf, `}}`...)
}

func (tw *traceWriter) span(name, cat string, pid, tid int, t, dur float64, req int64) {
	tw.sep()
	tw.buf = append(tw.buf, `{"ph":"X","name":`...)
	tw.buf = strconv.AppendQuote(tw.buf, name)
	tw.buf = append(tw.buf, `,"cat":"`...)
	tw.buf = append(tw.buf, cat...)
	tw.buf = append(tw.buf, `","pid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(pid), 10)
	tw.buf = append(tw.buf, `,"tid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(tid), 10)
	tw.buf = append(tw.buf, `,"ts":`...)
	tw.ts(t)
	tw.buf = append(tw.buf, `,"dur":`...)
	tw.ts(dur)
	tw.buf = append(tw.buf, `,"args":{"req":`...)
	tw.buf = strconv.AppendInt(tw.buf, req, 10)
	tw.buf = append(tw.buf, `}}`...)
}

func (tw *traceWriter) flow(ph, name string, pid, tid int, t float64, id int64) {
	tw.sep()
	tw.buf = append(tw.buf, `{"ph":"`...)
	tw.buf = append(tw.buf, ph...)
	tw.buf = append(tw.buf, `","name":`...)
	tw.buf = strconv.AppendQuote(tw.buf, name)
	tw.buf = append(tw.buf, `,"cat":"flow","pid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(pid), 10)
	tw.buf = append(tw.buf, `,"tid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(tid), 10)
	tw.buf = append(tw.buf, `,"ts":`...)
	tw.ts(t)
	tw.buf = append(tw.buf, `,"id":`...)
	tw.buf = strconv.AppendInt(tw.buf, id, 10)
	if ph == "f" {
		tw.buf = append(tw.buf, `,"bp":"e"`...)
	}
	tw.buf = append(tw.buf, `}`...)
}

func (tw *traceWriter) instant(name, cat string, pid, tid int, t float64, req int64, val float64) {
	tw.sep()
	tw.buf = append(tw.buf, `{"ph":"i","s":"t","name":`...)
	tw.buf = strconv.AppendQuote(tw.buf, name)
	tw.buf = append(tw.buf, `,"cat":"`...)
	tw.buf = append(tw.buf, cat...)
	tw.buf = append(tw.buf, `","pid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(pid), 10)
	tw.buf = append(tw.buf, `,"tid":`...)
	tw.buf = strconv.AppendInt(tw.buf, int64(tid), 10)
	tw.buf = append(tw.buf, `,"ts":`...)
	tw.ts(t)
	tw.buf = append(tw.buf, `,"args":{"req":`...)
	tw.buf = strconv.AppendInt(tw.buf, req, 10)
	tw.buf = append(tw.buf, `,"v":`...)
	tw.buf = strconv.AppendFloat(tw.buf, val, 'g', -1, 64)
	tw.buf = append(tw.buf, `}}`...)
}
