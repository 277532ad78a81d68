package fr

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/trace"
)

// .rvmfr container format, version 2 (version 1 lacked the aux varint in
// event records; this build reads only version 2):
//
//	6 bytes  magic "RVMFR\x00"
//	uvarint  container version
//	sections, each:
//	    1 byte   section id
//	    uvarint  payload length
//	    payload
//
// Section order is meta, strings, events, then the optional JSON registries.
// Readers skip unknown section ids, so later versions can add sections
// without breaking older tools. The events payload is the ring's records
// verbatim (length-prefixed binary events referencing the strings section);
// everything else is JSON or a string list, favoring debuggability over the
// last few bytes.

// DumpVersion is the current .rvmfr container version.
const DumpVersion = 2

// Magic prefixes every .rvmfr file.
var Magic = []byte("RVMFR\x00")

// Section ids.
const (
	secMeta    = 0x01 // JSON Meta
	secStrings = 0x02 // uvarint count, then per string: uvarint len + bytes
	secEvents  = 0x03 // uvarint event count, uvarint lost, then raw records
	secStats   = 0x04 // JSON core.Stats (opaque to fr)
	secMetrics = 0x05 // JSON obs.MetricsSummary replayed from the window
	secProfile = 0x06 // JSON profiler digest (opaque to fr)
)

// Meta is the dump's identity and trigger context.
type Meta struct {
	V       int    `json:"v"`
	Reason  string `json:"reason"`
	Seq     int    `json:"seq"`
	At      int64  `json:"at"`
	Detail  string `json:"detail,omitempty"`
	Program string `json:"program,omitempty"`
	VM      string `json:"vm,omitempty"`
}

// Dump is one flight-recorder snapshot: the ring's event window plus every
// registry the recorder could reach, self-contained enough that the file
// alone supports a post-mortem.
type Dump struct {
	Version int
	Meta    Meta

	// Strings is the intern table the event records reference.
	Strings []string
	// Events is the decoded window, oldest first.
	Events []trace.Event
	// EventCount mirrors len(Events) on the wire.
	EventCount int
	// Truncated reports that the ring overwrote events before the dump;
	// Lost counts them. The JSONL conversion carries both in its meta line
	// so tracecheck can attribute unmatched closers to the missing prefix.
	Truncated bool
	Lost      uint64

	// StatsJSON is the runtime's core.Stats snapshot (opaque JSON here —
	// fr does not import core). MetricsJSON is the obs.MetricsSummary
	// replayed from the window. ProfileJSON is the profiler digest. Any
	// may be nil.
	StatsJSON   []byte
	MetricsJSON []byte
	ProfileJSON []byte

	// records is the encoded events section when the dump came off a live
	// ring; WriteDump re-encodes from Events when nil.
	records []byte
}

// Metrics decodes the dump's replayed metrics section.
func (d *Dump) Metrics() (obs.MetricsSummary, error) {
	var s obs.MetricsSummary
	if len(d.MetricsJSON) == 0 {
		return s, fmt.Errorf("fr: dump has no metrics section")
	}
	err := json.Unmarshal(d.MetricsJSON, &s)
	return s, err
}

// WriteDump serializes the dump to w in .rvmfr format.
func WriteDump(w io.Writer, d *Dump) error {
	records := d.records
	strs := d.Strings
	if records == nil {
		records, strs = encodeRecords(d.Events, DefaultMaxStrings)
	}

	metaJSON, err := json.Marshal(d.Meta)
	if err != nil {
		return fmt.Errorf("fr: marshal meta: %w", err)
	}

	var strSec []byte
	strSec = binary.AppendUvarint(strSec, uint64(len(strs)))
	for _, s := range strs {
		strSec = binary.AppendUvarint(strSec, uint64(len(s)))
		strSec = append(strSec, s...)
	}

	var evSec []byte
	evSec = binary.AppendUvarint(evSec, uint64(len(d.Events)))
	evSec = binary.AppendUvarint(evSec, d.Lost)
	evSec = append(evSec, records...)

	var out []byte
	out = append(out, Magic...)
	out = binary.AppendUvarint(out, uint64(DumpVersion))
	section := func(id byte, payload []byte) {
		if payload == nil {
			return
		}
		out = append(out, id)
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
	}
	section(secMeta, metaJSON)
	section(secStrings, strSec)
	section(secEvents, evSec)
	section(secStats, d.StatsJSON)
	section(secMetrics, d.MetricsJSON)
	section(secProfile, d.ProfileJSON)

	_, err = w.Write(out)
	return err
}

// ReadDump parses a .rvmfr file, decoding the event window against its
// embedded string table. Unknown sections are skipped.
func ReadDump(r io.Reader) (*Dump, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(Magic) || string(raw[:len(Magic)]) != string(Magic) {
		return nil, fmt.Errorf("fr: not a .rvmfr dump (bad magic)")
	}
	raw = raw[len(Magic):]
	ver, n := binary.Uvarint(raw)
	if n <= 0 {
		return nil, fmt.Errorf("fr: truncated container version")
	}
	raw = raw[n:]
	if ver != DumpVersion {
		return nil, fmt.Errorf("fr: container version %d, this build reads %d", ver, DumpVersion)
	}

	d := &Dump{Version: int(ver)}
	var evSec []byte
	for len(raw) > 0 {
		id := raw[0]
		raw = raw[1:]
		plen, n := binary.Uvarint(raw)
		if n <= 0 {
			return nil, fmt.Errorf("fr: section 0x%02x: truncated length", id)
		}
		raw = raw[n:]
		if uint64(len(raw)) < plen {
			return nil, fmt.Errorf("fr: section 0x%02x: payload %d exceeds remaining %d bytes", id, plen, len(raw))
		}
		payload := raw[:plen]
		raw = raw[plen:]
		switch id {
		case secMeta:
			if err := json.Unmarshal(payload, &d.Meta); err != nil {
				return nil, fmt.Errorf("fr: meta section: %w", err)
			}
		case secStrings:
			cnt, n := binary.Uvarint(payload)
			if n <= 0 {
				return nil, fmt.Errorf("fr: strings section: truncated count")
			}
			payload = payload[n:]
			// Every string takes at least its length byte: bound the
			// untrusted count before sizing anything from it.
			if cnt > uint64(len(payload)) {
				return nil, fmt.Errorf("fr: strings section: %d strings claimed in %d bytes", cnt, len(payload))
			}
			d.Strings = make([]string, 0, cnt)
			for i := uint64(0); i < cnt; i++ {
				l, n := binary.Uvarint(payload)
				if n <= 0 {
					return nil, fmt.Errorf("fr: string %d: truncated length", i)
				}
				payload = payload[n:]
				if uint64(len(payload)) < l {
					return nil, fmt.Errorf("fr: string %d: %d bytes exceed remaining %d", i, l, len(payload))
				}
				d.Strings = append(d.Strings, string(payload[:l]))
				payload = payload[l:]
			}
		case secEvents:
			cnt, n := binary.Uvarint(payload)
			if n <= 0 {
				return nil, fmt.Errorf("fr: events section: truncated count")
			}
			payload = payload[n:]
			lost, n := binary.Uvarint(payload)
			if n <= 0 {
				return nil, fmt.Errorf("fr: events section: truncated lost count")
			}
			payload = payload[n:]
			d.EventCount = int(cnt)
			d.Lost = lost
			d.Truncated = lost > 0
			evSec = payload
		case secStats:
			d.StatsJSON = append([]byte(nil), payload...)
		case secMetrics:
			d.MetricsJSON = append([]byte(nil), payload...)
		case secProfile:
			d.ProfileJSON = append([]byte(nil), payload...)
		default:
			// Unknown section from a newer writer: skip.
		}
	}
	if evSec != nil {
		d.Events, err = decodeRecords(evSec, uint64(d.EventCount), d.Strings)
		if err != nil {
			return nil, err
		}
		d.records = append([]byte(nil), evSec...)
	}
	return d, nil
}

// WriteJSONL converts the dump's event window to the repo's JSONL trace
// schema, carrying the truncation marker in the meta line so tracecheck
// knows unmatched closers may belong to the overwritten prefix.
func (d *Dump) WriteJSONL(w io.Writer) error {
	jw := obs.NewJSONLWriterInfo(w, obs.StreamInfo{Truncated: d.Truncated, Lost: d.Lost})
	for _, e := range d.Events {
		jw.Emit(e)
	}
	return jw.Close()
}
