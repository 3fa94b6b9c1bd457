package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one recorded interval around a call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 at top level
	Op     int64  `json:"op"`     // operation the span belongs to
	// Bytes is the Go heap allocated while the span was open, read from
	// runtime/metrics (span-granular: the runtime counts a size class's
	// span when a goroutine's cache refills, so single spans are coarse,
	// sums over many are not).
	Bytes uint64 `json:"bytes"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// *tracer records nothing, so untraced runs pay one pointer test per call.
type tracer struct {
	epoch  time.Time
	spans  []span
	open   []int32 // stack of open span indices
	op     int64
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		spans:  make([]span, 0, 1<<16),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) heapBytes() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// nextOp starts a new operation id for the spans that follow.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Op: t.op,
		Bytes: t.heapBytes(),
		Start: int64(time.Since(t.epoch)),
	})
	t.open = append(t.open, id)
	return id
}

// end closes span id (which must be the innermost open span).
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	s.Bytes = t.heapBytes() - s.Bytes
	t.open = t.open[:len(t.open)-1]
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count int64
	total int64 // inclusive ns
	self  int64 // ns not covered by child spans
	bytes uint64
}

// aggregate sums spans by name. Self time is a span's duration minus that
// of its direct children (children never overlap: one goroutine records).
func (t *tracer) aggregate() map[string]*layerStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStat{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.count++
		st.total += d
		st.self += d - child[i]
		st.bytes += s.Bytes
	}
	return out
}

// write saves the spans as JSON in dir/name.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
