package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// SchemaVersion is the version stamped on every JSONL trace this package
// emits. Bump it when a field or kind name changes meaning; consumers
// reject traces from a different schema. Version 2 made payloads typed:
// numbers moved out of "detail" into "n" and "aux".
const SchemaVersion = 2

// SchemaName identifies the JSONL stream format.
const SchemaName = "rvm-trace"

// StreamInfo qualifies a JSONL trace stream. A truncated stream (converted
// from a wrapped flight-recorder ring) declares up front that its oldest
// events were overwritten, so a validator can attribute unjoinable events
// to the missing prefix instead of to a codec bug.
type StreamInfo struct {
	Truncated bool   `json:"truncated,omitempty"`
	Lost      uint64 `json:"lost,omitempty"` // events overwritten before the stream start
}

// jsonlMeta is the mandatory first line of a JSONL trace.
type jsonlMeta struct {
	Type   string   `json:"type"` // "meta"
	V      int      `json:"v"`
	Schema string   `json:"schema"`
	Kinds  []string `json:"kinds"` // every kind name the stream may use
	StreamInfo
}

// jsonlEvent is one event line of a JSONL trace.
type jsonlEvent struct {
	Type   string `json:"type"` // "event"
	At     int64  `json:"at"`
	Kind   string `json:"kind"`
	Thread string `json:"thread,omitempty"`
	Object string `json:"object,omitempty"`
	Other  string `json:"other,omitempty"`
	N      int64  `json:"n,omitempty"`
	Aux    int64  `json:"aux,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// JSONLWriter is a trace.Sink that streams events as schema-versioned JSON
// lines: one meta line (version, schema name, kind vocabulary) followed by
// one line per event. Errors are sticky and surfaced by Close.
type JSONLWriter struct {
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLWriter creates a writer and emits the meta line.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return NewJSONLWriterInfo(w, StreamInfo{})
}

// NewJSONLWriterInfo creates a writer whose meta line carries the given
// stream qualifiers — the flight-recorder converter uses it to mark
// streams decoded from a wrapped ring as truncated.
func NewJSONLWriterInfo(w io.Writer, info StreamInfo) *JSONLWriter {
	bw := bufio.NewWriter(w)
	j := &JSONLWriter{w: bw, enc: json.NewEncoder(bw)}
	j.err = j.enc.Encode(jsonlMeta{Type: "meta", V: SchemaVersion, Schema: SchemaName, Kinds: KindNames(), StreamInfo: info})
	return j
}

// Emit writes one event line. Implements trace.Sink.
func (j *JSONLWriter) Emit(e trace.Event) {
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(jsonlEvent{
		Type: "event", At: int64(e.At), Kind: e.Kind.String(),
		Thread: e.Thread, Object: e.Object, Other: e.Other, N: e.N, Aux: e.Aux, Detail: e.Detail,
	})
}

// Close flushes buffered lines and returns the first error encountered.
func (j *JSONLWriter) Close() error {
	if j.err != nil {
		return j.err
	}
	return j.w.Flush()
}

// KindNames returns the stable names of every trace kind, in declaration
// order — the shared vocabulary table in internal/trace, which both this
// JSONL meta line and the flight-recorder binary codec consume. The golden
// tests (here and in internal/trace) pin it so a rename breaks loudly.
func KindNames() []string { return trace.Names() }

// ValidateJSONL checks a JSONL trace stream against the schema: a leading
// meta line with the expected version and schema name, then event lines
// whose kind is in the declared vocabulary and whose timestamp is
// non-negative. It returns the number of validated event lines.
func ValidateJSONL(r io.Reader) (int, error) {
	n := 0
	_, err := scanJSONL(r, func(jsonlEvent) error { n++; return nil })
	return n, err
}

// ParseJSONL validates a JSONL trace stream and decodes it back into
// events, inverting JSONLWriter: a round-tripped stream replays into an
// Observer exactly as the live run did.
func ParseJSONL(r io.Reader) ([]trace.Event, error) {
	events, _, err := ParseJSONLInfo(r)
	return events, err
}

// ParseJSONLInfo is ParseJSONL plus the meta line's stream qualifiers, so
// a consumer can tell a truncated (ring-wrapped) stream from a complete
// one. Kind names resolve through this build's vocabulary, which the meta
// line must include.
func ParseJSONLInfo(r io.Reader) ([]trace.Event, StreamInfo, error) {
	var events []trace.Event
	info, err := scanJSONL(r, func(ev jsonlEvent) error {
		kind, ok := trace.KindByName(ev.Kind)
		if !ok {
			// Vocabulary from a newer build: validated as declared, but this
			// build cannot represent it.
			return fmt.Errorf("kind %q not known to this build", ev.Kind)
		}
		events = append(events, trace.Event{
			At: simtime.Ticks(ev.At), Kind: kind,
			Thread: ev.Thread, Object: ev.Object, Other: ev.Other, N: ev.N, Aux: ev.Aux, Detail: ev.Detail,
		})
		return nil
	})
	if err != nil {
		return nil, info, err
	}
	return events, info, nil
}

// scanJSONL reads a JSONL trace stream in one pass: it validates the meta
// line, then hands every validated event line to fn. Errors carry the
// offending line number.
func scanJSONL(r io.Reader, fn func(jsonlEvent) error) (StreamInfo, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return StreamInfo{}, err
		}
		return StreamInfo{}, fmt.Errorf("obs: empty trace (missing meta line)")
	}
	var meta jsonlMeta
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		return StreamInfo{}, fmt.Errorf("obs: line 1: %v", err)
	}
	if meta.Type != "meta" {
		return StreamInfo{}, fmt.Errorf("obs: line 1: type %q, want \"meta\"", meta.Type)
	}
	if meta.V != SchemaVersion {
		return StreamInfo{}, fmt.Errorf("obs: line 1: schema version %d, want %d", meta.V, SchemaVersion)
	}
	if meta.Schema != SchemaName {
		return StreamInfo{}, fmt.Errorf("obs: line 1: schema %q, want %q", meta.Schema, SchemaName)
	}
	known := make(map[string]bool, len(meta.Kinds))
	for _, k := range meta.Kinds {
		known[k] = true
	}
	// The declared vocabulary must itself be the current one: a trace from
	// a renamed build fails here rather than silently passing events.
	for _, k := range KindNames() {
		if !known[k] {
			return StreamInfo{}, fmt.Errorf("obs: line 1: meta kinds missing %q", k)
		}
	}
	for line := 2; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev jsonlEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return meta.StreamInfo, fmt.Errorf("obs: line %d: %v", line, err)
		}
		if ev.Type != "event" {
			return meta.StreamInfo, fmt.Errorf("obs: line %d: type %q, want \"event\"", line, ev.Type)
		}
		if !known[ev.Kind] {
			return meta.StreamInfo, fmt.Errorf("obs: line %d: unknown kind %q", line, ev.Kind)
		}
		if ev.At < 0 {
			return meta.StreamInfo, fmt.Errorf("obs: line %d: negative timestamp %d", line, ev.At)
		}
		if err := fn(ev); err != nil {
			return meta.StreamInfo, fmt.Errorf("obs: line %d: %v", line, err)
		}
	}
	return meta.StreamInfo, sc.Err()
}
