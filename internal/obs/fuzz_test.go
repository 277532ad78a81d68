package obs

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// FuzzParseJSONL feeds arbitrary bytes to the JSONL trace reader behind
// tracecheck. It must never panic; any stream it accepts must replay into
// the observer and its exporters, and survive a write/parse round trip
// with every event field intact. The seed in testdata/fuzz/FuzzParseJSONL
// is a trace recorded from examples/bank.
func FuzzParseJSONL(f *testing.F) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	for _, e := range []trace.Event{
		{At: 0, Kind: trace.ThreadStart, Thread: "lo", N: 3},
		{At: 4, Kind: trace.MonitorAcquired, Thread: "lo", Object: "m", Aux: 1},
		{At: 9, Kind: trace.MonitorBlocked, Thread: "hi", Object: "m", Other: "lo"},
		{At: 9, Kind: trace.RevokeRequested, Thread: "lo", Object: "m", Other: "hi", Aux: 1, Detail: "priority-inversion"},
		{At: 12, Kind: trace.Rollback, Thread: "lo", Object: "m", Other: "hi", N: 8, Aux: 2, Detail: "priority-inversion"},
	} {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		events, info, err := ParseJSONLInfo(bytes.NewReader(data))
		if err != nil {
			return
		}
		o := NewObserver()
		for _, e := range events {
			o.Emit(e)
		}
		o.Metrics().Summary()
		if err := WritePerfetto(io.Discard, o); err != nil {
			t.Fatalf("perfetto export of an accepted stream: %v", err)
		}
		var out bytes.Buffer
		jw := NewJSONLWriterInfo(&out, info)
		for _, e := range events {
			jw.Emit(e)
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		back, backInfo, err := ParseJSONLInfo(&out)
		if err != nil {
			t.Fatalf("re-parsing an accepted stream: %v", err)
		}
		if backInfo != info || len(back) != len(events) || len(events) > 0 && !reflect.DeepEqual(back, events) {
			t.Fatalf("stream changed across a round trip:\n got  %v %v\n want %v %v", backInfo, back, info, events)
		}
	})
}
