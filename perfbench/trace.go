package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program. Spans are kept in memory and written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a pass's root span
	Run    string `json:"run"`    // workload, seed and pass the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the time child spans cover
}

// tracer records spans. A nil *tracer records nothing, so untraced
// passes run the same code with tracing off.
type tracer struct {
	run   string
	pass  int
	t0    time.Time
	spans []span
	open  []int // indices of unfinished spans, innermost last
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span under the innermost open one and returns its
// index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Run: fmt.Sprintf("%s-p%d", t.run, t.pass), Name: name,
		Start: time.Since(t.t0).Nanoseconds(), End: -1,
	})
	t.open = append(t.open, id)
	return id
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != i {
		panic(fmt.Sprintf("perfbench: span %d ended out of order", i))
	}
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// selfTimes sets the self time of every span from index `from` on: its
// duration minus the union of the intervals its children cover.
func selfTimes(spans []span, from int) {
	children := map[int][]span{}
	for _, s := range spans[from:] {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := from; i < len(spans); i++ {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// selfTimesMS returns, for the span tree rooted at index root, the
// self time of each span name in milliseconds, summed over spans of
// the same name.
func (t *tracer) selfTimesMS(root int) map[string]float64 {
	selfTimes(t.spans, root)
	out := map[string]float64{}
	for _, s := range t.spans[root:] {
		out[s.Name] += float64(s.Self) / 1e6
	}
	return out
}

// finish computes every span's self time and returns the spans.
func (t *tracer) finish() []span {
	selfTimes(t.spans, 0)
	return t.spans
}

// writeSpans writes a traced run's spans, with the host shape, as JSON
// under dir and returns the file's path.
func writeSpans(dir, workload string, seed uint64, host string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-s%d.json", workload, seed))
	data, err := json.MarshalIndent(struct {
		Host  string `json:"host"`
		Spans []span `json:"spans"`
	}{host, spans}, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
