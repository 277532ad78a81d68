package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Metrics aggregates the latency histograms of one observed run — the
// distributions behind the paper's Figures 5–8: how long threads block, how
// long monitors are held and contended, and how much work rollbacks waste.
// All values are virtual-time ticks.
type Metrics struct {
	holdPerMonitor       map[string]*Histogram
	contentionPerMonitor map[string]*Histogram
	blockingPerThread    map[string]*Histogram
	wastedPerThread      map[string]*Histogram
	rollbackWasted       *Histogram
	reexecPerThread      map[string]int64
}

func newMetrics() *Metrics {
	return &Metrics{
		holdPerMonitor:       make(map[string]*Histogram),
		contentionPerMonitor: make(map[string]*Histogram),
		blockingPerThread:    make(map[string]*Histogram),
		wastedPerThread:      make(map[string]*Histogram),
		rollbackWasted:       &Histogram{},
		reexecPerThread:      make(map[string]int64),
	}
}

func hist(m map[string]*Histogram, key string) *Histogram {
	h, ok := m[key]
	if !ok {
		h = &Histogram{}
		m[key] = h
	}
	return h
}

func (m *Metrics) observeHold(s Span) {
	hist(m.holdPerMonitor, s.Monitor).Observe(int64(s.Duration()))
}

func (m *Metrics) observeBlocking(s Span) {
	hist(m.blockingPerThread, s.Thread).Observe(int64(s.Duration()))
	hist(m.contentionPerMonitor, s.Monitor).Observe(int64(s.Duration()))
}

func (m *Metrics) observeRollback(thread string, wasted int64) {
	m.rollbackWasted.Observe(wasted)
	hist(m.wastedPerThread, thread).Observe(wasted)
}

func (m *Metrics) observeReexecution(thread string) {
	m.reexecPerThread[thread]++
}

// HoldPerMonitor returns the hold-time histogram of one monitor (nil when
// the monitor was never held).
func (m *Metrics) HoldPerMonitor(monitor string) *Histogram { return m.holdPerMonitor[monitor] }

// ContentionPerMonitor returns the blocking-time histogram of one monitor.
func (m *Metrics) ContentionPerMonitor(monitor string) *Histogram {
	return m.contentionPerMonitor[monitor]
}

// HoldPerMonitorAll returns every monitor's hold-time histogram.
func (m *Metrics) HoldPerMonitorAll() map[string]*Histogram { return m.holdPerMonitor }

// ContentionPerMonitorAll returns every monitor's blocking-time histogram.
func (m *Metrics) ContentionPerMonitorAll() map[string]*Histogram { return m.contentionPerMonitor }

// BlockingPerThread returns one thread's blocking-time histogram.
func (m *Metrics) BlockingPerThread(thread string) *Histogram { return m.blockingPerThread[thread] }

// BlockingPerThreadAll returns every thread's blocking-time histogram.
func (m *Metrics) BlockingPerThreadAll() map[string]*Histogram { return m.blockingPerThread }

// RollbackWasted returns the histogram of discarded work per rollback; its
// Sum reconciles exactly with core.Stats.WastedTicks.
func (m *Metrics) RollbackWasted() *Histogram { return m.rollbackWasted }

// WastedPerThread returns one thread's rollback wasted-ticks histogram.
func (m *Metrics) WastedPerThread(thread string) *Histogram { return m.wastedPerThread[thread] }

// Reexecutions returns the per-thread re-execution counts.
func (m *Metrics) Reexecutions() map[string]int64 { return m.reexecPerThread }

// MetricsVersion is the version stamped on every metrics summary and fleet
// SLO report; it moves independently of the JSONL trace SchemaVersion.
const MetricsVersion = 1

// MetricsSummary is the serializable digest of a Metrics registry.
type MetricsSummary struct {
	SchemaVersion        int                    `json:"v"`
	BlockingPerThread    map[string]HistSummary `json:"blocking_per_thread,omitempty"`
	HoldPerMonitor       map[string]HistSummary `json:"hold_per_monitor,omitempty"`
	ContentionPerMonitor map[string]HistSummary `json:"contention_per_monitor,omitempty"`
	WastedPerThread      map[string]HistSummary `json:"wasted_per_thread,omitempty"`
	RollbackWasted       HistSummary            `json:"rollback_wasted"`
	Reexecutions         map[string]int64       `json:"reexecutions,omitempty"`
}

func summarize(m map[string]*Histogram) map[string]HistSummary {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]HistSummary, len(m))
	for k, h := range m {
		out[k] = h.Summary()
	}
	return out
}

// Summary digests every histogram.
func (m *Metrics) Summary() MetricsSummary {
	return MetricsSummary{
		SchemaVersion:        MetricsVersion,
		BlockingPerThread:    summarize(m.blockingPerThread),
		HoldPerMonitor:       summarize(m.holdPerMonitor),
		ContentionPerMonitor: summarize(m.contentionPerMonitor),
		WastedPerThread:      summarize(m.wastedPerThread),
		RollbackWasted:       m.rollbackWasted.Summary(),
		Reexecutions:         m.reexecPerThread,
	}
}

// WriteJSON writes the summary as indented JSON.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.Summary())
}

// Render writes the metrics as aligned text, one histogram per line,
// percentiles in ticks.
func (m *Metrics) Render(w io.Writer) {
	section := func(title string, hs map[string]*Histogram) {
		if len(hs) == 0 {
			return
		}
		fmt.Fprintf(w, "%s (ticks):\n", title)
		for _, k := range sortedKeys(hs) {
			renderLine(w, k, hs[k])
		}
	}
	section("blocking time per thread", m.blockingPerThread)
	section("hold time per monitor", m.holdPerMonitor)
	section("contention per monitor", m.contentionPerMonitor)
	if m.rollbackWasted.Count() > 0 {
		fmt.Fprintf(w, "rollback wasted work (ticks):\n")
		renderLine(w, "all rollbacks", m.rollbackWasted)
		for _, k := range sortedKeys(m.wastedPerThread) {
			renderLine(w, k, m.wastedPerThread[k])
		}
	}
	if len(m.reexecPerThread) > 0 {
		fmt.Fprintf(w, "re-executions:\n")
		keys := make([]string, 0, len(m.reexecPerThread))
		for k := range m.reexecPerThread {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-24s %d\n", k, m.reexecPerThread[k])
		}
	}
}

func sortedKeys(m map[string]*Histogram) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
