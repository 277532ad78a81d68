package fr

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/rewrite"
	"repro/internal/sched"
	"repro/internal/trace"
)

var allTiers = []interp.Tier{interp.TierExec, interp.TierOpt}

// exampleSources globs every example program, same corpus as the interp and
// prof property tests.
func exampleSources(t *testing.T) []string {
	t.Helper()
	var srcs []string
	for _, dir := range []string{"bytecode", "racy"} {
		matches, err := filepath.Glob(filepath.Join("..", "..", "examples", dir, "*.rvm"))
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, matches...)
	}
	if len(srcs) < 5 {
		t.Fatalf("found only %d example programs: %v", len(srcs), srcs)
	}
	return srcs
}

// runExample executes one example on one tier with the given sinks attached.
func runExample(t *testing.T, src string, tier interp.Tier, sink trace.Sink) {
	t.Helper()
	text, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bytecode.Assemble(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if err := bytecode.Verify(prog); err != nil {
		t.Fatal(err)
	}
	prog, err = rewrite.Rewrite(prog)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(core.Config{
		Mode:              core.Revocation,
		TrackDependencies: true,
		DeadlockDetection: true,
		Observer:          sink,
		Sched:             sched.Config{Quantum: 1000, SwitchCost: 3},
	})
	if _, err := interp.Run(rt, prog, interp.Options{
		Rewritten: true,
		Tier:      tier,
		Out:       io.Discard,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderRoundTripsEveryExample is the codec's grand property, checked
// over the whole example corpus on both execution tiers: recording a
// run through the binary ring and decoding it back yields the event stream
// identically — field for field — to a plain in-memory trace.Recorder
// attached to the same run.
func TestRecorderRoundTripsEveryExample(t *testing.T) {
	for _, src := range exampleSources(t) {
		src := src
		t.Run(filepath.Base(src), func(t *testing.T) {
			for _, tier := range allTiers {
				var ref trace.Recorder
				rec := New(Config{Size: 8 << 20}) // large: must not wrap
				runExample(t, src, tier, trace.Multi{&ref, rec})
				if rec.Wrapped() {
					t.Fatalf("%v: 8 MiB ring wrapped; example too big for the identity check", tier)
				}
				got, err := rec.Events()
				if err != nil {
					t.Fatalf("%v: decode: %v", tier, err)
				}
				want := ref.Events()
				if len(got) != len(want) {
					t.Fatalf("%v: recorded %d events, reference %d", tier, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v: event %d differs:\nring %+v\nref  %+v", tier, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestDumpReplayMatchesLiveObserver pins the acceptance property: replaying
// an unwrapped dump's window through internal/obs yields metrics identical
// to an Observer that was attached to the live run — the dump is a faithful
// substitute for having had full observability on.
func TestDumpReplayMatchesLiveObserver(t *testing.T) {
	for _, src := range exampleSources(t) {
		src := src
		t.Run(filepath.Base(src), func(t *testing.T) {
			live := obs.NewObserver()
			rec := New(Config{Size: 8 << 20})
			runExample(t, src, interp.TierExec, trace.Multi{live, rec})
			if rec.Wrapped() {
				t.Fatal("ring wrapped; property only holds for complete windows")
			}
			d, err := rec.Snapshot("")
			if err != nil {
				t.Fatal(err)
			}

			// The dump's embedded metrics section vs the live observer.
			liveJSON, err := json.Marshal(live.Metrics().Summary())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(d.MetricsJSON, liveJSON) {
				t.Errorf("embedded metrics differ from live observer:\n%s\nvs\n%s", d.MetricsJSON, liveJSON)
			}

			// And through a full container round trip + fresh replay.
			var buf bytes.Buffer
			if err := WriteDump(&buf, d); err != nil {
				t.Fatal(err)
			}
			back, err := ReadDump(&buf)
			if err != nil {
				t.Fatal(err)
			}
			replayed := obs.NewObserver()
			for _, e := range back.Events {
				replayed.Emit(e)
			}
			replayJSON, err := json.Marshal(replayed.Metrics().Summary())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(replayJSON, liveJSON) {
				t.Errorf("metrics replayed from container differ from live observer")
			}
			if replayed.Dropped() != live.Dropped() {
				t.Errorf("replay dropped %d events, live %d", replayed.Dropped(), live.Dropped())
			}
			// Span/chain reconstruction must agree too, not just histograms.
			if len(replayed.Spans()) != len(live.Spans()) {
				t.Errorf("replay has %d spans, live %d", len(replayed.Spans()), len(live.Spans()))
			}
			if len(replayed.Chains()) != len(live.Chains()) {
				t.Errorf("replay has %d chains, live %d", len(replayed.Chains()), len(live.Chains()))
			}
		})
	}
}

// TestWrappedRingStreamStaysValid runs the corpus through a deliberately
// tiny ring, so the window truncates, and pins that the resulting JSONL
// stream (a) declares the truncation with an exact lost count, (b) still
// passes schema validation, and (c) replays through an Observer without a
// panic, with every event accounted for.
func TestWrappedRingStreamStaysValid(t *testing.T) {
	for _, src := range exampleSources(t) {
		src := src
		t.Run(filepath.Base(src), func(t *testing.T) {
			var ref trace.Recorder
			rec := New(Config{Size: 512})
			runExample(t, src, interp.TierExec, trace.Multi{&ref, rec})
			if !rec.Wrapped() {
				t.Skipf("example emits too few events (%d) to wrap a 512-byte ring", ref.Len())
			}
			d, err := rec.Snapshot("")
			if err != nil {
				t.Fatal(err)
			}
			if uint64(len(d.Events))+d.Lost != uint64(ref.Len()) {
				t.Fatalf("window %d + lost %d != emitted %d", len(d.Events), d.Lost, ref.Len())
			}
			// The window must be exactly the tail of the reference stream.
			tail := ref.Events()[ref.Len()-len(d.Events):]
			if !reflect.DeepEqual(d.Events, tail) {
				t.Fatal("window is not the exact tail of the emitted stream")
			}

			var buf bytes.Buffer
			if err := d.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := obs.ValidateJSONL(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("truncated stream fails schema validation: %v", err)
			}
			events, info, err := obs.ParseJSONLInfo(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !info.Truncated || info.Lost != d.Lost {
				t.Fatalf("truncation marker wrong: %+v (want lost=%d)", info, d.Lost)
			}
			replayed := obs.NewObserver()
			for _, e := range events {
				replayed.Emit(e)
			}
			// A truncated stream may drop events (joins into the missing
			// prefix), but everything must still be consumed defensively.
			if got := len(replayed.Events()); got != len(events) {
				t.Fatalf("observer retained %d of %d events", got, len(events))
			}
		})
	}
}
