package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a request root
	Req    int    `json:"req"`    // request id shared by every span of one request
	Input  int    `json:"input"`  // the workload input the request ran
}

// spanRec keeps spans in memory until the run ends. A nil *spanRec records
// nothing, so the untraced path pays one nil check per layer boundary.
type spanRec struct {
	t0    time.Time
	req   int // id of the current request
	input int // input of the current request
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// begin opens a span under parent and returns its id (-1 when not tracing).
func (r *spanRec) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0).Nanoseconds(), Parent: parent, Req: r.req, Input: r.input})
	return len(r.spans) - 1
}

// end closes span id.
func (r *spanRec) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
}

// layerTime is the total and self time of one span name over a run.
type layerTime struct {
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
	Count   int   `json:"count"`
}

// layerTimes sums, per span name, the total duration and the self time: a
// span's duration minus the time its child spans cover. Children of one
// span never overlap (the VM runs one request at a time), so the covered
// time is the sum of the children's durations.
func (r *spanRec) layerTimes() map[string]layerTime {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for i, s := range r.spans {
		lt := out[s.Name]
		lt.TotalNs += s.End - s.Start
		lt.SelfNs += s.End - s.Start - child[i]
		lt.Count++
		out[s.Name] = lt
	}
	return out
}

// write stores the spans, the per-layer totals and the host fingerprint as
// one JSON document.
func (r *spanRec) write(path string, meta map[string]any) error {
	doc := map[string]any{"meta": meta, "layers": r.layerTimes(), "spans": r.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
