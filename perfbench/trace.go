package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer during a traced run. Spans of one
// operation share req; parent is the index of the enclosing span in the
// same tracer, or -1.
type span struct {
	name       string
	req        int64
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps the spans of one goroutine in memory; it is not safe for
// concurrent use, so concurrent callers each own one. full() tells a traced
// loop to stop before the capacity is reached. A nil tracer records
// nothing, so one loop serves the traced and the untraced pass.
type tracer struct {
	epoch time.Time
	spans []span
}

// spanCap bounds the spans one tracer keeps (about 48 bytes each).
const spanCap = 1 << 17

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, spanCap)}
}

func (t *tracer) full() bool { return t != nil && len(t.spans) >= spanCap-64 }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, req int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t != nil {
		t.spans[i].end = int64(time.Since(t.epoch))
	}
}

// layerTime is the summed time of one span name across a run.
type layerTime struct {
	count      int
	total, own time.Duration // own = total minus the time child spans cover
}

// selfTimes derives each span name's total and self time from the spans of
// every tracer. Children of one span never overlap (each tracer belongs to
// one goroutine), so a span's self time is its duration minus its
// children's.
func selfTimes(ts ...*tracer) map[string]*layerTime {
	out := map[string]*layerTime{}
	for _, t := range ts {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			lt := out[s.name]
			if lt == nil {
				lt = &layerTime{}
				out[s.name] = lt
			}
			lt.count++
			lt.total += time.Duration(s.end - s.start)
			lt.own += time.Duration(s.end - s.start - child[i])
		}
	}
	return out
}

// spanCount is the number of spans the tracers hold.
func spanCount(ts ...*tracer) int {
	n := 0
	for _, t := range ts {
		n += len(t.spans)
	}
	return n
}

// writeSpans writes every span as CSV (tracer, name, req, parent, start_ns,
// end_ns) to <dir>/trace-<workload>-<seed>.csv, after the run ends.
func writeSpans(dir, workload string, seed int64, ts ...*tracer) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.csv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "tracer,name,req,parent,start_ns,end_ns")
	for ti, t := range ts {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", ti, s.name, s.req, s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// perOp returns a layer's summed self time per operation in nanoseconds (0
// when the layer never ran).
func perOp(lt map[string]*layerTime, name string, ops int) float64 {
	l := lt[name]
	if l == nil || ops == 0 {
		return 0
	}
	return float64(l.own.Nanoseconds()) / float64(ops)
}

// add records a span timed by the caller.
func (t *tracer) add(name string, req int64, parent int32, start, end time.Time) {
	if t != nil {
		t.spans = append(t.spans, span{name: name, req: req, parent: parent,
			start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))})
	}
}
