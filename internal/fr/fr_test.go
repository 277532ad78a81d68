package fr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/trace"
)

func writeFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

// sampleEvents exercises every field shape: empty strings, repeated interned
// strings, negative N and Aux, detail churn.
func sampleEvents() []trace.Event {
	return []trace.Event{
		{At: 0, Kind: trace.ThreadStart, Thread: "high", N: 9},
		{At: 5, Kind: trace.MonitorEnter, Thread: "high", Object: "lock"},
		{At: 5, Kind: trace.MonitorAcquired, Thread: "high", Object: "lock", Aux: 1},
		{At: 9, Kind: trace.MonitorBlocked, Thread: "low", Object: "lock", Other: "high"},
		{At: 12, Kind: trace.Rollback, Thread: "low", Object: "lock", Other: "high", N: -3, Aux: -1 << 40, Detail: "priority-inversion"},
		{At: 20, Kind: trace.ContextSwitch, Detail: "quantum"},
		{At: 31, Kind: trace.RaceDetected, Thread: "w2", Object: "slot#4", Other: "w1", N: 2},
		{At: 40, Kind: trace.ThreadEnd, Thread: "high"},
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	r := New(Config{Size: 1 << 16})
	want := sampleEvents()
	for _, e := range want {
		r.Emit(e)
	}
	got, err := r.Events()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %v\nwant %v", got, want)
	}
	if r.Wrapped() {
		t.Fatal("ring should not have wrapped")
	}
}

func TestRecorderEmitSteadyStateZeroAllocs(t *testing.T) {
	r := New(Config{Size: 1 << 16, Triggers: DefaultTriggers()})
	events := []trace.Event{
		{At: 1, Kind: trace.MonitorEnter, Thread: "worker-1", Object: "m0"},
		{At: 2, Kind: trace.MonitorAcquired, Thread: "worker-1", Object: "m0"},
		{At: 3, Kind: trace.MonitorExit, Thread: "worker-1", Object: "m0"},
		{At: 4, Kind: trace.MonitorBlocked, Thread: "worker-2", Object: "m0", Other: "worker-1"},
	}
	// Warm up: intern every string, grow the scratch buffer.
	for _, e := range events {
		r.Emit(e)
	}
	var at simtime.Ticks = 100
	allocs := testing.AllocsPerRun(1000, func() {
		for i := range events {
			e := events[i]
			e.At = at
			at++
			r.Emit(e)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Emit allocates %v times per 4 events, want 0", allocs)
	}
}

func TestStringInternOverflowGoesInline(t *testing.T) {
	r := New(Config{Size: 1 << 16, MaxStrings: 2})
	var want []trace.Event
	for i := 0; i < 10; i++ {
		e := trace.Event{At: simtime.Ticks(i), Kind: trace.Custom, Thread: "t", Detail: fmt.Sprintf("unique-%d", i)}
		want = append(want, e)
		r.Emit(e)
	}
	got, err := r.Events()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("inline overflow round trip mismatch:\ngot  %v\nwant %v", got, want)
	}
}

func TestDecodeRejectsCorruptRecords(t *testing.T) {
	d := decoder{strs: []string{"a"}}
	if _, err := d.decodeEvent([]byte{}); err == nil {
		t.Error("empty record should fail")
	}
	// Unknown kind 200.
	buf := []byte{0x01, 200, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00}
	if _, err := d.decodeEvent(buf); err == nil {
		t.Error("unknown kind should fail")
	}
	// String id out of range: strref 5 -> odd -> id 2 with a 1-string table.
	buf = []byte{0x01, 0x00, 0x05}
	if _, err := d.decodeEvent(buf); err == nil {
		t.Error("out-of-range string id should fail")
	}
}

func TestParseTriggers(t *testing.T) {
	cases := []struct {
		spec string
		want TriggerSpec
		err  bool
	}{
		{"", DefaultTriggers(), false},
		{"none", TriggerSpec{}, false},
		{"deadlock", TriggerSpec{Deadlock: true}, false},
		{"deadlock,race", TriggerSpec{Deadlock: true, Race: true}, false},
		{"storm", TriggerSpec{StormN: DefaultStormN, StormWindow: DefaultStormWindow}, false},
		{"storm=4@100", TriggerSpec{StormN: 4, StormWindow: 100}, false},
		{"storm=4", TriggerSpec{StormN: 4, StormWindow: DefaultStormWindow}, false},
		{"latency=5000", TriggerSpec{Latency: 5000}, false},
		{"exit", TriggerSpec{Exit: true}, false},
		{"deadlock,exit", TriggerSpec{Deadlock: true, Exit: true}, false},
		{"deadlock,storm=2@10,latency=1", TriggerSpec{Deadlock: true, StormN: 2, StormWindow: 10, Latency: 1}, false},
		{"bogus", TriggerSpec{}, true},
		{"latency", TriggerSpec{}, true},
		{"latency=-1", TriggerSpec{}, true},
		{"storm=0", TriggerSpec{}, true},
		{"none,deadlock", TriggerSpec{}, true},
		{"deadlock=1", TriggerSpec{}, true},
	}
	for _, c := range cases {
		got, err := ParseTriggers(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("ParseTriggers(%q): want error, got %+v", c.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTriggers(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseTriggers(%q) = %+v, want %+v", c.spec, got, c.want)
		}
		// String() must round-trip through ParseTriggers.
		back, err := ParseTriggers(got.String())
		if err != nil || back != got {
			t.Errorf("round trip %q -> %q -> %+v (%v)", c.spec, got.String(), back, err)
		}
	}
}

// dumpCollector is an OnDump hook capturing fired dumps.
type dumpCollector struct{ dumps []*Dump }

func (c *dumpCollector) hook(d *Dump) { c.dumps = append(c.dumps, d) }

func TestTriggerDeadlockFiresOnce(t *testing.T) {
	var c dumpCollector
	r := New(Config{Size: 1 << 14, Triggers: TriggerSpec{Deadlock: true}, OnDump: c.hook})
	r.Emit(trace.Event{At: 10, Kind: trace.MonitorBlocked, Thread: "a", Object: "l1", Other: "b"})
	r.Emit(trace.Event{At: 20, Kind: trace.DeadlockDetected, Thread: "a", Object: "l1", Detail: "cycle=a->b->a"})
	r.Emit(trace.Event{At: 30, Kind: trace.DeadlockDetected, Thread: "b", Object: "l2"})
	if len(c.dumps) != 1 {
		t.Fatalf("deadlock trigger fired %d times, want 1 (latched)", len(c.dumps))
	}
	d := c.dumps[0]
	if d.Meta.Reason != ReasonDeadlock {
		t.Errorf("reason %q, want %q", d.Meta.Reason, ReasonDeadlock)
	}
	if d.Meta.At != 20 {
		t.Errorf("trigger at %d, want 20", d.Meta.At)
	}
	if !strings.Contains(d.Meta.Detail, "deadlock-detected") {
		t.Errorf("trigger detail %q should carry the firing event", d.Meta.Detail)
	}
	if len(d.Events) != 2 {
		t.Errorf("dump window has %d events, want 2 (the firing event is included)", len(d.Events))
	}
}

func TestTriggerRace(t *testing.T) {
	var c dumpCollector
	r := New(Config{Size: 1 << 14, Triggers: TriggerSpec{Race: true}, OnDump: c.hook})
	r.Emit(trace.Event{At: 5, Kind: trace.RaceDetected, Thread: "w2", Object: "slot#1", Other: "w1"})
	if len(c.dumps) != 1 || c.dumps[0].Meta.Reason != ReasonRace {
		t.Fatalf("race trigger: %d dumps", len(c.dumps))
	}
}

func TestTriggerStormWindow(t *testing.T) {
	var c dumpCollector
	spec := TriggerSpec{StormN: 3, StormWindow: 100}
	r := New(Config{Size: 1 << 14, Triggers: spec, OnDump: c.hook})
	// Three rollbacks spread beyond the window: no fire.
	r.Emit(trace.Event{At: 0, Kind: trace.Rollback, Thread: "a", Object: "l"})
	r.Emit(trace.Event{At: 90, Kind: trace.Rollback, Thread: "a", Object: "l"})
	r.Emit(trace.Event{At: 200, Kind: trace.Rollback, Thread: "a", Object: "l"})
	if len(c.dumps) != 0 {
		t.Fatalf("storm fired on a spread-out sequence")
	}
	// A third rollback within 100 ticks of the 90-tick one: 90,200,210 spans
	// 120 > 100 — still no. Then 90..190 window closes it? stormTimes now
	// holds 90,200,210; oldest in window check is 90: 210-90 > 100. Add 280:
	// oldest 200, 280-200 <= 100 -> fire.
	r.Emit(trace.Event{At: 210, Kind: trace.Rollback, Thread: "a", Object: "l"})
	if len(c.dumps) != 0 {
		t.Fatalf("storm fired with window slack exceeded")
	}
	r.Emit(trace.Event{At: 280, Kind: trace.Rollback, Thread: "a", Object: "l"})
	if len(c.dumps) != 1 || c.dumps[0].Meta.Reason != ReasonStorm {
		t.Fatalf("storm should fire when %d rollbacks land inside the window (%d dumps)", spec.StormN, len(c.dumps))
	}
}

func TestTriggerLatency(t *testing.T) {
	var c dumpCollector
	r := New(Config{Size: 1 << 14, Triggers: TriggerSpec{Latency: 50}, OnDump: c.hook})
	// Short wait: no fire.
	r.Emit(trace.Event{At: 0, Kind: trace.MonitorBlocked, Thread: "a", Object: "l", Other: "b"})
	r.Emit(trace.Event{At: 10, Kind: trace.MonitorAcquired, Thread: "a", Object: "l"})
	if len(c.dumps) != 0 {
		t.Fatal("latency fired under threshold")
	}
	// A wait cleared by rollback must not count: the span was revoked.
	r.Emit(trace.Event{At: 20, Kind: trace.MonitorBlocked, Thread: "a", Object: "l", Other: "b"})
	r.Emit(trace.Event{At: 40, Kind: trace.Rollback, Thread: "a", Object: "l"})
	r.Emit(trace.Event{At: 200, Kind: trace.MonitorAcquired, Thread: "a", Object: "l"})
	if len(c.dumps) != 0 {
		t.Fatal("latency counted a rolled-back wait")
	}
	// A genuine long wait fires.
	r.Emit(trace.Event{At: 300, Kind: trace.MonitorBlocked, Thread: "a", Object: "l", Other: "b"})
	r.Emit(trace.Event{At: 355, Kind: trace.MonitorAcquired, Thread: "a", Object: "l"})
	if len(c.dumps) != 1 || c.dumps[0].Meta.Reason != ReasonLatency {
		t.Fatalf("latency trigger: %d dumps", len(c.dumps))
	}
}

func TestDumpWriteReadRoundTrip(t *testing.T) {
	statsJSON := []byte(`{"rollbacks":3}`)
	profJSON := []byte(`{"sites":[]}`)
	r := New(Config{
		Size: 1 << 16, Program: "examples/deadlock2", VM: "revocation",
		StatsJSON:   func() []byte { return statsJSON },
		ProfileJSON: func() []byte { return profJSON },
	})
	for _, e := range sampleEvents() {
		r.Emit(e)
	}
	d, err := r.Snapshot("manual")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDump(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, d.Events) {
		t.Errorf("events differ after container round trip")
	}
	if got.Meta != d.Meta {
		t.Errorf("meta differs: %+v vs %+v", got.Meta, d.Meta)
	}
	if got.Meta.Program != "examples/deadlock2" || got.Meta.VM != "revocation" {
		t.Errorf("program/vm labels lost: %+v", got.Meta)
	}
	if !bytes.Equal(got.StatsJSON, statsJSON) || !bytes.Equal(got.ProfileJSON, profJSON) {
		t.Errorf("stats/profile sections differ")
	}
	if got.Truncated || got.Lost != 0 {
		t.Errorf("unwrapped dump marked truncated (lost=%d)", got.Lost)
	}
	// The embedded metrics must decode and match a direct replay. JSON is
	// the canonical form (it normalizes empty-vs-nil maps).
	if _, err := got.Metrics(); err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	for _, e := range d.Events {
		o.Emit(e)
	}
	wantJSON, err := json.Marshal(o.Metrics().Summary())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.MetricsJSON, wantJSON) {
		t.Errorf("dump metrics differ from direct replay:\n%s\nvs\n%s", got.MetricsJSON, wantJSON)
	}
}

func TestDumpUnknownSectionSkipped(t *testing.T) {
	r := New(Config{Size: 1 << 14})
	r.Emit(trace.Event{At: 1, Kind: trace.ThreadStart, Thread: "t", N: 5})
	d, err := r.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDump(&buf, d); err != nil {
		t.Fatal(err)
	}
	// Splice an unknown section (id 0x7f) in before EOF.
	raw := append(buf.Bytes(), 0x7f, 3, 'x', 'y', 'z')
	got, err := ReadDump(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("unknown section should be skipped: %v", err)
	}
	if len(got.Events) != 1 || got.Meta.Reason != ReasonManual {
		t.Fatalf("dump content lost around unknown section: %+v", got.Meta)
	}
}

func TestDumpRejectsBadMagic(t *testing.T) {
	if _, err := ReadDump(bytes.NewReader([]byte("NOTAFR\x00\x01"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestWrappedDumpCarriesTruncation(t *testing.T) {
	r := New(Config{Size: 256})
	for i := 0; i < 500; i++ {
		r.Emit(trace.Event{At: simtime.Ticks(i), Kind: trace.ContextSwitch, Detail: "q"})
	}
	if !r.Wrapped() {
		t.Fatal("500 events in a 256-byte ring must wrap")
	}
	d, err := r.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Truncated || d.Lost == 0 {
		t.Fatalf("wrapped dump not marked truncated (lost=%d)", d.Lost)
	}
	if uint64(len(d.Events))+d.Lost != 500 {
		t.Fatalf("events %d + lost %d != 500", len(d.Events), d.Lost)
	}
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, info, err := obs.ParseJSONLInfo(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Truncated || info.Lost != d.Lost {
		t.Fatalf("JSONL meta lost the truncation marker: %+v", info)
	}
	if len(events) != len(d.Events) {
		t.Fatalf("JSONL carries %d events, dump %d", len(events), len(d.Events))
	}
}

func TestSyncRecorderConcurrentSnapshot(t *testing.T) {
	s := NewSync(New(Config{Size: 1 << 12}))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			s.Emit(trace.Event{At: simtime.Ticks(i), Kind: trace.ContextSwitch})
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := s.Snapshot(""); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if s.Len() == 0 {
		t.Fatal("no events recorded")
	}
}

func TestFleetMergeDumpsAndBench(t *testing.T) {
	dir := t.TempDir()

	// Two dumps with known blocking spans: 10 ticks and 30 ticks.
	writeDump := func(name string, block int64) string {
		r := New(Config{Size: 1 << 14})
		r.Emit(trace.Event{At: 0, Kind: trace.ThreadStart, Thread: "a", N: 1})
		r.Emit(trace.Event{At: 0, Kind: trace.MonitorBlocked, Thread: "a", Object: "l", Other: "b"})
		r.Emit(trace.Event{At: simtime.Ticks(block), Kind: trace.MonitorAcquired, Thread: "a", Object: "l"})
		r.Emit(trace.Event{At: simtime.Ticks(block + 5), Kind: trace.MonitorExit, Thread: "a", Object: "l"})
		d, err := r.Snapshot("")
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		var buf bytes.Buffer
		if err := WriteDump(&buf, d); err != nil {
			t.Fatal(err)
		}
		if err := writeFile(path, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		return path
	}
	p1 := writeDump("a.rvmfr", 10)
	p2 := writeDump("b.rvmfr", 30)

	// One BENCH report array with a 2-sample blocking digest.
	bench := `[{"label":"x","date":"2026-08-08","latency":[{"name":"cell","vm":"modified",
	  "blocking_per_thread":{"t1":{"count":2,"sum":40,"min":15,"max":25,"p50":15,"p90":25,"p99":25,"p999":25}},
	  "rollback_wasted":{"count":1,"sum":7,"min":7,"max":7,"p50":7,"p90":7,"p99":7,"p999":7}}]}]`
	p3 := dir + "/BENCH_test.json"
	if err := writeFile(p3, []byte(bench)); err != nil {
		t.Fatal(err)
	}

	rep, err := MergeFleet([]string{p1, p2, p3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DumpCount != 2 || rep.BenchCount != 1 {
		t.Fatalf("counts: %d dumps, %d bench", rep.DumpCount, rep.BenchCount)
	}
	blocking, ok := rep.Series["blocking"]
	if !ok {
		t.Fatal("no blocking series")
	}
	if blocking.Count != 4 {
		t.Fatalf("blocking count %d, want 4 (2 dump samples + 2 digest samples)", blocking.Count)
	}
	if blocking.Sum != 10+30+40 {
		t.Fatalf("blocking sum %d, want 80 (exact sums)", blocking.Sum)
	}
	if !blocking.Approximate {
		t.Fatal("series with digest inputs must be marked approximate")
	}
	if blocking.Max != 30 && blocking.Max != 25 {
		t.Fatalf("blocking max %d not from any input", blocking.Max)
	}
	hold := rep.Series["hold"]
	if hold.Approximate {
		t.Fatal("hold series has only dump samples; must stay exact")
	}
	if hold.Count != 2 {
		t.Fatalf("hold count %d, want 2", hold.Count)
	}

	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "blocking") || !strings.Contains(out, "p99.9") {
		t.Fatalf("render missing series table:\n%s", out)
	}
	buf.Reset()
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back FleetReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Series["blocking"].Count != 4 {
		t.Fatal("JSON round trip lost series")
	}
}

func TestFleetMergeRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	p := dir + "/junk.bin"
	if err := writeFile(p, []byte("not a dump, not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeFleet([]string{p}); err == nil {
		t.Fatal("garbage input accepted")
	}
	if _, err := MergeFleet(nil); err == nil {
		t.Fatal("empty input list accepted")
	}
}
