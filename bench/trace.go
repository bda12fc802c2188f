package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented). Times are nanoseconds since
// the tracer started. Parent is the index of the span that caused this one,
// -1 for a root; spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"request"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs and the untraced control half of a
// traced run share the workload code.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	nextReq int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request allocates the identifier the spans of one request share.
func (t *tracer) request() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextReq++
	return t.nextReq
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// child records a span whose duration was reported by the program rather
// than observed (the server's queueWaitNs): it is placed at the start of its
// parent.
func (t *tracer) child(name string, parent, req int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + int64(d), Parent: parent, Req: req})
}

// selfTime is one row of the per-layer breakdown.
type selfTime struct {
	Name  string
	Spans int
	Total time.Duration
	Self  time.Duration
}

// selfTimes returns, per span name, the total duration and the self time: a
// span's duration minus the part of that interval its child spans cover.
func (t *tracer) selfTimes() []selfTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*selfTime)
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		dur := s.End - s.Start
		st.Spans++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered(s, children[i]))
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals clipped to
// the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// layerOf is the module a span or metric name belongs to: the text before
// the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
