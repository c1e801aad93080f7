package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own files around a call into the program. Times are
// nanoseconds since the tracer was created.
type span struct {
	Name     string `json:"name"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced passes run.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: now()}
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	at := since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Workload: t.workload, StartNs: at})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	at := since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].EndNs = at
	t.mu.Unlock()
}

// add records a span whose two ends were observed elsewhere (a key's Push
// and the Data frame that answers it, seen on different goroutines).
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, ID: len(t.spans) + 1, Parent: parent, Workload: t.workload,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
	})
}

// in runs fn inside a span.
func (t *tracer) in(name string, parent int, fn func(id int)) {
	id := t.begin(name, parent)
	fn(id)
	t.end(id)
}

// writeSpans stores spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	buf, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

// summary prints, per span name (an index suffix such as pass[3] is dropped),
// the count, the total duration and the self time: a span's duration minus
// the part of it that its child spans cover. Children may overlap (the
// per-key spans of one iteration do), so the cover is a union of intervals.
func (t *tracer) summary(w io.Writer) {
	kids := make([][]span, len(t.spans)+1)
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	type agg struct {
		n           int
		total, self int64
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range t.spans {
		name := s.Name
		if i := strings.IndexByte(name, '['); i >= 0 {
			name = name[:i]
		}
		a := by[name]
		if a == nil {
			a = &agg{}
			by[name] = a
			names = append(names, name)
		}
		a.n++
		a.total += s.EndNs - s.StartNs
		a.self += s.EndNs - s.StartNs - covered(kids[s.ID])
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].StartNs < ss[j].StartNs })
	var sum, hi int64
	for i, s := range ss {
		if i == 0 || s.StartNs > hi {
			sum += s.EndNs - s.StartNs
			hi = s.EndNs
		} else if s.EndNs > hi {
			sum += s.EndNs - hi
			hi = s.EndNs
		}
	}
	return sum
}
