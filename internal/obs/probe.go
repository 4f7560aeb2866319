package obs

import (
	"io"
	"strconv"
)

// ProbeSample is one pool's state at one probe tick. Counter fields
// (Arrived through Tokens, and the busy integrals) are cumulative
// since t=0; the exporters difference consecutive samples of the same
// pool into per-window rates. Gauges (Queue, Live, Parked, KVBlocks,
// NetInFlight) are instantaneous.
type ProbeSample struct {
	T    float64
	Pool int32

	// Gauges.
	Queue       int // outstanding work in the pool's scheduler
	Live        int // up, unparked instances
	Parked      int // autoscaler-parked instances
	KVBlocks    int // KV blocks in use across the pool's allocators
	NetInFlight int // fabric transfers in flight (cluster-wide)

	// Cumulative counters.
	PrefillBusy float64 // prefill busy seconds
	DecodeBusy  float64 // decode busy seconds
	Arrived     int
	Completed   int
	Shed        int
	Retries     int
	Abandoned   int
	Timeouts    int
	Tokens      int    // output tokens generated
	Events      uint64 // engine events fired (cluster-wide)
}

// Probe appends one sample row. The serving simulator calls it once
// per pool per probe tick.
func (r *Recorder) Probe(s ProbeSample) { r.probes = append(r.probes, s) }

// Probes returns the recorded sample rows in capture order.
func (r *Recorder) Probes() []ProbeSample { return r.probes }

// probeHeader is the CSV column set. Windowed columns (suffix _w and
// the rates) are differences between consecutive samples of the same
// pool: goodput is tokens/second over the window, shed_rate and
// retry_rate are events/second, busy columns are mean busy instances.
const probeHeader = "time,pool,queue,live,parked,kv_blocks,net_inflight," +
	"prefill_busy,decode_busy,arrived,completed,shed,retries,abandoned,timeouts," +
	"completed_w,shed_w,goodput,shed_rate,retry_rate,events\n"

// WriteProbesCSV exports the probe series as CSV, one row per (tick,
// pool), in capture order. Output is byte-deterministic.
func (r *Recorder) WriteProbesCSV(w io.Writer) error {
	buf := make([]byte, 0, 64+len(r.probes)*96)
	buf = append(buf, probeHeader...)
	last := make(map[int32]ProbeSample, 8)
	for _, s := range r.probes {
		prev, ok := last[s.Pool]
		if !ok {
			prev = ProbeSample{Pool: s.Pool}
		}
		last[s.Pool] = s
		dt := s.T - prev.T
		if dt <= 0 {
			dt = 1
		}
		buf = strconv.AppendFloat(buf, s.T, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.Pool), 10)
		for _, v := range [...]int{s.Queue, s.Live, s.Parked, s.KVBlocks, s.NetInFlight} {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(v), 10)
		}
		for _, v := range [...]float64{(s.PrefillBusy - prev.PrefillBusy) / dt, (s.DecodeBusy - prev.DecodeBusy) / dt} {
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		for _, v := range [...]int{s.Arrived, s.Completed, s.Shed, s.Retries, s.Abandoned, s.Timeouts} {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(v), 10)
		}
		for _, v := range [...]int{s.Completed - prev.Completed, s.Shed - prev.Shed} {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(v), 10)
		}
		for _, v := range [...]float64{
			float64(s.Tokens-prev.Tokens) / dt,
			float64(s.Shed-prev.Shed) / dt,
			float64(s.Retries-prev.Retries) / dt,
		} {
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, s.Events, 10)
		buf = append(buf, '\n')
	}
	_, err := w.Write(buf)
	return err
}

// WriteProbesJSON exports the probe series as a JSON array of row
// objects mirroring the CSV columns. Output is byte-deterministic.
func (r *Recorder) WriteProbesJSON(w io.Writer) error {
	buf := make([]byte, 0, 64+len(r.probes)*192)
	buf = append(buf, '[')
	last := make(map[int32]ProbeSample, 8)
	for i, s := range r.probes {
		prev, ok := last[s.Pool]
		if !ok {
			prev = ProbeSample{Pool: s.Pool}
		}
		last[s.Pool] = s
		dt := s.T - prev.T
		if dt <= 0 {
			dt = 1
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n{\"time\":"...)
		buf = strconv.AppendFloat(buf, s.T, 'g', -1, 64)
		buf = appendKVInt(buf, "pool", int64(s.Pool))
		buf = appendKVInt(buf, "queue", int64(s.Queue))
		buf = appendKVInt(buf, "live", int64(s.Live))
		buf = appendKVInt(buf, "parked", int64(s.Parked))
		buf = appendKVInt(buf, "kv_blocks", int64(s.KVBlocks))
		buf = appendKVInt(buf, "net_inflight", int64(s.NetInFlight))
		buf = appendKVFloat(buf, "prefill_busy", (s.PrefillBusy-prev.PrefillBusy)/dt)
		buf = appendKVFloat(buf, "decode_busy", (s.DecodeBusy-prev.DecodeBusy)/dt)
		buf = appendKVInt(buf, "arrived", int64(s.Arrived))
		buf = appendKVInt(buf, "completed", int64(s.Completed))
		buf = appendKVInt(buf, "shed", int64(s.Shed))
		buf = appendKVInt(buf, "retries", int64(s.Retries))
		buf = appendKVInt(buf, "abandoned", int64(s.Abandoned))
		buf = appendKVInt(buf, "timeouts", int64(s.Timeouts))
		buf = appendKVInt(buf, "completed_w", int64(s.Completed-prev.Completed))
		buf = appendKVInt(buf, "shed_w", int64(s.Shed-prev.Shed))
		buf = appendKVFloat(buf, "goodput", float64(s.Tokens-prev.Tokens)/dt)
		buf = appendKVFloat(buf, "shed_rate", float64(s.Shed-prev.Shed)/dt)
		buf = appendKVFloat(buf, "retry_rate", float64(s.Retries-prev.Retries)/dt)
		buf = appendKVInt(buf, "events", int64(s.Events))
		buf = append(buf, '}')
	}
	buf = append(buf, "\n]\n"...)
	_, err := w.Write(buf)
	return err
}

func appendKVInt(buf []byte, k string, v int64) []byte {
	buf = append(buf, ',', '"')
	buf = append(buf, k...)
	buf = append(buf, '"', ':')
	return strconv.AppendInt(buf, v, 10)
}

func appendKVFloat(buf []byte, k string, v float64) []byte {
	buf = append(buf, ',', '"')
	buf = append(buf, k...)
	buf = append(buf, '"', ':')
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}
