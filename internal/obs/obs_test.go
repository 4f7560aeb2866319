package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// fill drives a recorder through n synthetic request lifecycles plus a
// couple of cluster events, deterministically from the recorder's own
// reservoir stream.
func fill(r *Recorder, n int) {
	for i := 0; i < n; i++ {
		id := int64(i)
		t := float64(i) * 0.25
		r.Request(Arrival, t, 0, -1, id, 128)
		r.Request(Enqueue, t, 0, -1, id, 0)
		r.Request(PrefillStart, t+0.1, 0, int32(i%4), id, 8)
		r.Request(PrefillEnd, t+0.3, 0, int32(i%4), id, 0)
		r.Request(FirstToken, t+0.35, 0, int32(i%4), id, 0.35)
		r.Request(Complete, t+1.5, 0, int32(i%4), id, 1.5)
	}
	r.Cluster(InstanceDown, 10, 0, 2, 1)
	r.Cluster(InstanceUp, 30, 0, 2, 0)
}

func TestReservoirBoundsAndDeterminism(t *testing.T) {
	r := New(Options{Seed: 42, SampleTargets: 64})
	fill(r, 10_000)
	held, seen := r.Sampled()
	if held != 64 {
		t.Fatalf("held %d timelines, want capacity 64", held)
	}
	if seen != 10_000 {
		t.Fatalf("seen %d arrivals, want 10000", seen)
	}
	// The id index must exactly mirror the slots.
	checkLive(t, r, 64)

	// Same seed, same feed: byte-identical exports.
	r2 := New(Options{Seed: 42, SampleTargets: 64})
	fill(r2, 10_000)
	var a, b bytes.Buffer
	if err := r.WriteTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed + feed produced different trace bytes")
	}
	if !json.Valid(a.Bytes()) {
		t.Fatal("trace export is not valid JSON")
	}

	// A different seed samples a different subset.
	r3 := New(Options{Seed: 43, SampleTargets: 64})
	fill(r3, 10_000)
	var c bytes.Buffer
	if err := r3.WriteTrace(&c); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different reservoir seeds produced identical samples")
	}
}

func TestSmallRunKeepsEveryTimeline(t *testing.T) {
	r := New(Options{Seed: 1, SampleTargets: 100})
	fill(r, 40)
	held, seen := r.Sampled()
	if held != 40 || seen != 40 {
		t.Fatalf("held/seen = %d/%d, want 40/40 (no eviction below capacity)", held, seen)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(buf.Bytes(), []byte(`"complete"`)); got != 40 {
		t.Fatalf("trace shows %d completions, want 40", got)
	}
	// All 40 completions also produce flow arrows.
	if got := bytes.Count(buf.Bytes(), []byte(`"ph":"f"`)); got != 40 {
		t.Fatalf("trace shows %d flow-finish events, want 40", got)
	}
}

func TestAdoptExtendsTimelineAcrossRetry(t *testing.T) {
	r := New(Options{Seed: 5, SampleTargets: 8})
	r.Request(Arrival, 0, 0, -1, 1, 64)
	r.Request(Timeout, 20, 0, -1, 1, 0)
	r.Adopt(1, 2)
	r.Request(Retry, 22, 0, -1, 2, 0)
	r.Request(Complete, 30, 0, 0, 2, 8)

	if r.live.get(1) >= 0 {
		t.Fatal("old id still tracked after Adopt")
	}
	idx := r.live.get(2)
	if idx < 0 {
		t.Fatal("new id not tracked after Adopt")
	}
	s := &r.slots[idx]
	if s.id != 2 {
		t.Fatalf("slot id = %d, want re-keyed to 2", s.id)
	}
	var kinds []Kind
	for _, e := range s.appendEvents(nil) {
		kinds = append(kinds, e.Kind)
	}
	if want := []Kind{Arrival, Timeout, Retry, Complete}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("timeline holds %v, want %v (arrival..complete on one slot)", kinds, want)
	}
	checkLive(t, r, 1)
	// Adopting an untracked id is a no-op.
	r.Adopt(99, 100)
	if r.live.get(100) >= 0 {
		t.Fatal("Adopt of untracked id created a live entry")
	}
	checkLive(t, r, 1)
}

func TestAdoptSurvivesEviction(t *testing.T) {
	// After Adopt re-keys a slot, evicting that slot must remove the
	// *new* id from the live map — the stale-alias regression.
	r := New(Options{Seed: 7, SampleTargets: 4})
	for i := int64(0); i < 4; i++ {
		r.Request(Arrival, float64(i), 0, -1, i, 1)
	}
	r.Adopt(2, 1002)
	for i := int64(4); i < 5000; i++ {
		r.Request(Arrival, float64(i), 0, -1, i, 1)
	}
	checkLive(t, r, 4)
}

// checkLive requires the id index to mirror the held slots exactly:
// one entry per held slot, every entry naming a slot that holds its id,
// and every entry found again by a lookup of its id.
func checkLive(t *testing.T, r *Recorder, want int) {
	t.Helper()
	if held, _ := r.Sampled(); held != want {
		t.Fatalf("reservoir holds %d timelines, want %d", held, want)
	}
	entries := 0
	for _, b := range r.live.buckets {
		if b.ref == 0 {
			continue
		}
		entries++
		idx := b.ref - 1
		if r.slots[idx].id != b.id {
			t.Fatalf("stale alias: id %d -> slot %d holding id %d", b.id, idx, r.slots[idx].id)
		}
		if got := r.live.get(b.id); got != idx {
			t.Fatalf("lookup of id %d found slot %d, its entry names %d", b.id, got, idx)
		}
	}
	if entries != want {
		t.Fatalf("id index holds %d entries, want one per held slot, %d", entries, want)
	}
}

// feedLong records n request lifecycles of 20 events each, ids from
// first on: the arrival, prefill and first token, 14 KV growths and the
// completion, as a long decode records them.
func feedLong(r *Recorder, first int64, n int) {
	for id := first; id < first+int64(n); id++ {
		t := float64(id)
		r.Request(Arrival, t, 0, -1, id, 512)
		r.Request(Enqueue, t, 0, -1, id, 0)
		r.Request(PrefillStart, t+0.1, 0, 1, id, 4)
		r.Request(PrefillEnd, t+0.2, 0, 1, id, 0)
		r.Request(FirstToken, t+0.3, 0, 1, id, 0.3)
		for g := 0; g < 14; g++ {
			r.Request(KVGrow, t+0.4+float64(g), 0, 1, id, float64(g))
		}
		r.Request(Complete, t+15, 0, 1, id, 15)
	}
}

// recorderSink keeps a recorder built inside an allocation count alive.
var recorderSink *Recorder

// TestRecorderAllocatesPerChunkNotPerEvent pins the slab's cost: past
// New, whose fixed allocations include the id index sized once for the
// reservoir, a run allocates only slab blocks, as many as its largest
// working set of chunks needs, and once the reservoir is full and
// evictions have primed the free list, recording allocates nothing.
func TestRecorderAllocatesPerChunkNotPerEvent(t *testing.T) {
	opts := Options{Seed: 3, SampleTargets: 64}
	newOnly := testing.AllocsPerRun(5, func() { recorderSink = New(opts) })
	whole := testing.AllocsPerRun(5, func() {
		recorderSink = New(opts)
		feedLong(recorderSink, 0, 10_000)
	})
	r := recorderSink
	if held, seen := r.Sampled(); held != 64 || seen != 10_000 {
		t.Fatalf("held/seen = %d/%d, want 64/10000", held, seen)
	}
	// Each timeline spans two chunks, and an evicted one frees its two
	// before its successor needs them.
	maxBlocks := (64*2 + blockChunks - 1) / blockChunks
	if r.blocks == 0 || r.blocks > maxBlocks {
		t.Fatalf("slab allocated %d blocks, want 1..%d", r.blocks, maxBlocks)
	}
	if got := whole - newOnly; got != float64(r.blocks) {
		t.Fatalf("10k arrivals cost %v allocations past New, want exactly the %d slab blocks", got, r.blocks)
	}
	if want := 256; len(r.live.buckets) != want {
		t.Fatalf("id index has %d buckets, want %d (the power of two ≥ 4×64, never grown)", len(r.live.buckets), want)
	}

	next := int64(10_000)
	if a := testing.AllocsPerRun(200, func() {
		feedLong(r, next, 1)
		next++
	}); a != 0 {
		t.Fatalf("steady-state recording allocates %v per request lifecycle, want 0", a)
	}
	checkLive(t, r, 64)
}

func TestProbeExports(t *testing.T) {
	r := New(Options{Seed: 1, ProbeInterval: 5})
	if r.ProbeInterval() != 5 {
		t.Fatalf("ProbeInterval() = %v, want 5", r.ProbeInterval())
	}
	for i := 0; i < 4; i++ {
		r.Probe(ProbeSample{
			T: float64(i+1) * 5, Pool: 0,
			Queue: 10 - i, Live: 2,
			Arrived: 20 * (i + 1), Completed: 15 * (i + 1),
			Shed: 2 * i, Tokens: 1000 * (i + 1),
			PrefillBusy: float64(i+1) * 4, DecodeBusy: float64(i+1) * 8,
			Events: uint64(100 * (i + 1)),
		})
		r.Probe(ProbeSample{T: float64(i+1) * 5, Pool: 1, Live: 1, Events: uint64(100 * (i + 1))})
	}

	var csv bytes.Buffer
	if err := r.WriteProbesCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(csv.String(), "\n"), "\n")
	if len(lines) != 1+8 {
		t.Fatalf("CSV has %d lines, want header + 8 rows", len(lines))
	}
	if lines[0] != strings.TrimSuffix(probeHeader, "\n") {
		t.Fatalf("CSV header mismatch:\n%s", lines[0])
	}
	cols := strings.Count(lines[0], ",") + 1
	for i, ln := range lines[1:] {
		if got := strings.Count(ln, ",") + 1; got != cols {
			t.Fatalf("row %d has %d columns, want %d: %s", i, got, cols, ln)
		}
	}
	// First pool-0 window: 1000 tokens over 5s (prev implicit zero at t=0).
	if !strings.HasPrefix(lines[1], "5,0,") || !strings.Contains(lines[1], ",200,") {
		t.Fatalf("first pool-0 row lacks goodput 200 tok/s: %s", lines[1])
	}
	// Second pool-0 window is also a 1000-token delta.
	if !strings.Contains(lines[3], ",200,") {
		t.Fatalf("second pool-0 row lacks windowed goodput 200 tok/s: %s", lines[3])
	}

	var js bytes.Buffer
	if err := r.WriteProbesJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(js.Bytes()) {
		t.Fatal("probe JSON export is not valid JSON")
	}
	var rows []map[string]any
	if err := json.Unmarshal(js.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("JSON export has %d rows, want 8", len(rows))
	}
	if rows[2]["goodput"].(float64) != 200 {
		t.Fatalf("JSON row 2 goodput = %v, want windowed 200", rows[2]["goodput"])
	}
	// JSON carries the same fields as the CSV: every row's keys are the
	// CSV columns in order, and its numbers are the CSV row's cells.
	header := strings.Split(lines[0], ",")
	keys, vals := probeJSONRows(t, js.Bytes())
	for i := range keys {
		if !reflect.DeepEqual(keys[i], header) {
			t.Fatalf("JSON row %d keys %v, want the CSV columns %v", i, keys[i], header)
		}
		if want := strings.Split(lines[1+i], ","); !reflect.DeepEqual(vals[i], want) {
			t.Fatalf("JSON row %d values %v, want the CSV row %v", i, vals[i], want)
		}
	}
}

// probeJSONRows decodes a probe JSON export, keeping each row's keys
// and number texts in document order.
func probeJSONRows(t *testing.T, data []byte) (keys, vals [][]string) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	next := func() json.Token {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	next() // [
	for dec.More() {
		next() // {
		var k, v []string
		for dec.More() {
			k = append(k, next().(string))
			v = append(v, next().(json.Number).String())
		}
		next() // }
		keys, vals = append(keys, k), append(vals, v)
	}
	return keys, vals
}

func TestPlanTraceRender(t *testing.T) {
	pt := PlanTrace{Candidates: []PlanCandidate{
		{
			Scheduler: "static", Fabric: "nvlink",
			Rungs: []PlanRung{
				{Prefill: 1, Decode: 1, TTFTAttainment: 0.41, TBTAttainment: 0.90, Arrived: 100, Completed: 55},
				{Prefill: 1, Decode: 2, Refine: true, TTFTAttainment: 0.96, TBTAttainment: 0.99, Arrived: 22, Completed: 20, SettledAt: 39.63},
				{Prefill: 2, Decode: 2, TTFTAttainment: 0.97, TBTAttainment: 0.99, Arrived: 100, Completed: 98, Feasible: true},
			},
			Feasible: true, Winner: true,
			PrefillInstances: 2, DecodeInstances: 2, TotalGPUs: 4,
			CostPerMTok: 1.25, Reason: "cheapest feasible candidate",
		},
		{
			Scheduler: "colocated",
			Feasible:  false, Reason: "no sizing within budget met the TTFT SLO",
		},
	}}

	var human bytes.Buffer
	if err := pt.Render(&human); err != nil {
		t.Fatal(err)
	}
	out := human.String()
	for _, want := range []string{
		"★ candidate static fabric=nvlink",
		"try 1P+1D", "try 2P+2D", "meets SLO",
		"refine 1P+2D: ttft 0.960 tbt 0.990 (20/22 done) — settled at 39.6 s — miss",
		"= 4 GPUs", "$1.25/Mtok", "cheapest feasible candidate",
		"✗ candidate colocated", "no sizing within budget",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered trace missing %q:\n%s", want, out)
		}
	}

	var js bytes.Buffer
	if err := pt.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(js.Bytes()) {
		t.Fatal("plan trace JSON is invalid")
	}
	var back PlanTrace
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Candidates) != 2 || !back.Candidates[0].Winner || back.Candidates[1].Feasible {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	if !reflect.DeepEqual(back.Candidates[0].Rungs, pt.Candidates[0].Rungs) {
		t.Fatalf("rungs round-trip mismatch: %+v", back.Candidates[0].Rungs)
	}
	// Only the settled rung carries settled_at.
	if n := strings.Count(js.String(), `"settled_at": 39.63`); n != 1 || strings.Count(js.String(), "settled_at") != 1 {
		t.Fatalf("JSON should carry settled_at on exactly the settled rung:\n%s", js.String())
	}
}

func TestPoolNames(t *testing.T) {
	r := New(Options{})
	if got := r.poolName(0); got != "pool" {
		t.Fatalf("unnamed pool renders %q", got)
	}
	r.SetPoolName(2, "decode-eu")
	if got := r.poolName(2); got != "decode-eu" {
		t.Fatalf("named pool renders %q", got)
	}
	if got := r.poolName(1); got != "pool" {
		t.Fatalf("gap pool renders %q", got)
	}
}
