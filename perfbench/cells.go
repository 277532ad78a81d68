package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// cell is one point of the paper's Figure 5-8 grid: thread mix, write
// ratio, short (Figures 5/7) or long (Figures 6/8) high-priority loop, and
// the VM that runs it.
type cell struct {
	High, Low int
	WritePct  int
	ShortHigh bool
	Modified  bool
}

func (c cell) String() string {
	vm := "UNMODIFIED"
	if c.Modified {
		vm = "MODIFIED"
	}
	loop := "long"
	if c.ShortHigh {
		loop = "short"
	}
	return fmt.Sprintf("%d+%d/%d%%/%s/%s", c.High, c.Low, c.WritePct, loop, vm)
}

// The values below are bench.CellParams(bench.ScaleMedium, ...) as of the
// benchmark's creation, copied so that an edit to internal/bench cannot
// change this workload. TestCellParamsProvenance compares them with the
// current internal/bench.
const (
	cellSections  = 50
	cellLowIters  = 15000
	cellBufferLen = 1024
	cellCostRW    = 4
	cellQuantum   = cellCostRW * cellLowIters * 2 / 3
)

var (
	cellMixes       = [][2]int{{2, 8}, {5, 5}, {8, 2}}
	cellWriteRatios = []int{0, 20, 40, 60, 80, 100}
)

// cellGrid lists the 72 cells: mix × write ratio × loop length × VM.
func cellGrid() []cell {
	var g []cell
	for _, mix := range cellMixes {
		for _, wp := range cellWriteRatios {
			for _, short := range []bool{true, false} {
				for _, mod := range []bool{false, true} {
					g = append(g, cell{High: mix[0], Low: mix[1], WritePct: wp, ShortHigh: short, Modified: mod})
				}
			}
		}
	}
	return g
}

func (c cell) highIters() int {
	if c.ShortHigh {
		return cellLowIters / 5
	}
	return cellLowIters
}

// runCell executes one cell through core's public API, the way the paper's
// micro-benchmark (§4.1) runs: every thread performs cellSections
// synchronized sections over one shared buffer, each preceded by a random
// pause averaging one quantum. seed drives the scheduler and the pauses.
// The cell checks its own invariants; a violation is returned as an error.
func runCell(c cell, seed int64, sp *spanRec, root int) (outcome, error) {
	mode := core.Unmodified
	if c.Modified {
		mode = core.Revocation
	}
	id := sp.begin("core.setup", root)
	rt := core.New(core.Config{
		Mode:              mode,
		TrackDependencies: c.Modified,
		CostRead:          cellCostRW,
		CostWrite:         cellCostRW,
		CostLogEntry:      1,
		CostUndoEntry:     1,
		Sched:             sched.Config{Quantum: cellQuantum, Seed: seed},
	})
	buf := rt.Heap().AllocArray(cellBufferLen)
	mon := rt.NewMonitor("shared")

	var reads int64
	completed := make([]int, 0, c.High+c.Low)
	var high, all []*core.Task
	spawn := func(name string, prio sched.Priority, iters int, tseed int64) *core.Task {
		slot := len(completed)
		completed = append(completed, 0)
		rng := rand.New(rand.NewSource(tseed))
		return rt.Spawn(name, prio, func(tk *core.Task) {
			for s := 0; s < cellSections; s++ {
				tk.Sleep(simtime.Ticks(rng.Int63n(2*cellQuantum + 1)))
				tk.Synchronized(mon, func() {
					reads += innerLoop(tk, buf, iters, c.WritePct)
				})
				completed[slot]++
			}
		})
	}
	for i := 0; i < c.High; i++ {
		t := spawn(fmt.Sprintf("high%d", i), sched.HighPriority, c.highIters(), seed+int64(i)*7919+1)
		high = append(high, t)
		all = append(all, t)
	}
	for i := 0; i < c.Low; i++ {
		all = append(all, spawn(fmt.Sprintf("low%d", i), sched.LowPriority, cellLowIters, seed+int64(i)*104729+2))
	}
	sp.end(id)

	id = sp.begin("core.run", root)
	err := rt.Run()
	sp.end(id)
	if err != nil {
		return outcome{}, fmt.Errorf("cell %v: %w", c, err)
	}

	o := outcome{
		Clock:        rt.Now(),
		HighSpan:     elapsed(high),
		OverallSpan:  elapsed(all),
		Threads:      threadSpans(rt),
		Stats:        rt.Stats(),
		Acquisitions: acquisitions(rt),
		Reads:        reads,
	}
	return o, checkCell(c, completed, o.Stats)
}

// checkCell verifies a finished cell: every thread completed every
// section; the unmodified VM never logs or rolls back; on the modified VM
// every rollback was followed by exactly one re-execution.
func checkCell(c cell, completed []int, st core.Stats) error {
	for i, n := range completed {
		if n != cellSections {
			return fmt.Errorf("cell %v: thread %d completed %d of %d sections", c, i, n, cellSections)
		}
	}
	if !c.Modified && (st.Rollbacks != 0 || st.EntriesLogged != 0) {
		return fmt.Errorf("cell %v: unmodified VM rolled back %d sections, logged %d entries", c, st.Rollbacks, st.EntriesLogged)
	}
	if c.Modified && st.Reexecutions != st.Rollbacks {
		return fmt.Errorf("cell %v: %d re-executions after %d rollbacks", c, st.Reexecutions, st.Rollbacks)
	}
	return nil
}

// innerLoop runs iters interleaved reads and writes with exactly writePct
// percent writes, spread evenly, and returns the number of reads.
func innerLoop(tk *core.Task, buf *heap.Array, iters, writePct int) int64 {
	var reads int64
	writes := 0
	for i := 0; i < iters; i++ {
		idx := i % cellBufferLen
		if (i+1)*writePct/100 > writes {
			tk.WriteElem(buf, idx, heap.Word(i))
			writes++
		} else {
			tk.ReadElem(buf, idx)
			reads++
		}
	}
	return reads
}

// elapsed is the time from the earliest start to the latest finish of ts.
func elapsed(ts []*core.Task) simtime.Ticks {
	if len(ts) == 0 {
		return 0
	}
	start, end := ts[0].Thread().StartedAt(), ts[0].Thread().EndedAt()
	for _, t := range ts[1:] {
		start = min(start, t.Thread().StartedAt())
		end = max(end, t.Thread().EndedAt())
	}
	return end - start
}
