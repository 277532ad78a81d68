package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/simtime"
)

// threadSpan is one VM thread's virtual lifetime.
type threadSpan struct {
	Name       string
	Start, End simtime.Ticks
}

// outcome is the virtual result of one request. The fields up to Heap are
// the request's virtual digest: a change that only makes the simulator
// faster must leave every one of them identical. The remaining fields are
// exact counts the traced run reports per layer; they are derived from the
// digested state or from the benchmark's own bookkeeping.
type outcome struct {
	Clock simtime.Ticks
	// HighSpan and OverallSpan are the paper's Figure 5-8 measures
	// (paper-cells only).
	HighSpan, OverallSpan simtime.Ticks
	Threads               []threadSpan
	Stats                 core.Stats
	// Heap fingerprints the final heap contents and printed output
	// (rvm workloads only).
	Heap uint64

	Acquisitions int64 // monitor acquisitions, thin and inflated
	Reads        int64 // read barriers executed (paper-cells only: counted by the cell loop)
	OptMethods   int   // methods running fused tier-3 code at the end
	FREvents     int64 // events the flight recorder received
	FRLost       int64 // events evicted from its ring
}

// digest hashes the virtual part of an outcome.
func (o *outcome) digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "clock=%d high=%d overall=%d heap=%x\n", o.Clock, o.HighSpan, o.OverallSpan, o.Heap)
	for _, t := range o.Threads {
		fmt.Fprintf(h, "%s:%d-%d\n", t.Name, t.Start, t.End)
	}
	fmt.Fprintf(h, "%+v", o.Stats)
	return h.Sum64()
}

// threadSpans lists every task's virtual lifetime in thread-id order.
func threadSpans(rt *core.Runtime) []threadSpan {
	tasks := rt.Tasks()
	ids := make([]int, 0, len(tasks))
	for id := range tasks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	spans := make([]threadSpan, len(ids))
	for i, id := range ids {
		th := tasks[id].Thread()
		spans[i] = threadSpan{Name: th.Name(), Start: th.StartedAt(), End: th.EndedAt()}
	}
	return spans
}

// acquisitions sums monitor acquisitions over every monitor the runtime
// created.
func acquisitions(rt *core.Runtime) int64 {
	var n int64
	for _, m := range rt.Monitors() {
		n += m.Acquisitions()
	}
	return n
}

// heapFingerprint hashes every static, object field and array element, in
// allocation order, followed by the printed values.
func heapFingerprint(h *heap.Heap, printed []heap.Word) uint64 {
	f := fnv.New64a()
	for i := 0; i < h.NumStatics(); i++ {
		fmt.Fprintf(f, "s%d=%d;", i, h.GetStatic(i))
	}
	for _, o := range h.Objects() {
		fmt.Fprintf(f, "o%d:", o.ID())
		for i := 0; i < o.NumFields(); i++ {
			fmt.Fprintf(f, "%d,", o.Get(i))
		}
	}
	for _, a := range h.Arrays() {
		fmt.Fprintf(f, "a%d:", a.ID())
		for i := 0; i < a.Len(); i++ {
			fmt.Fprintf(f, "%d,", a.Get(i))
		}
	}
	fmt.Fprintf(f, "print=%v", printed)
	return f.Sum64()
}
