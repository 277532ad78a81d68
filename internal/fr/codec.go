// Binary event codec. One event encodes to a compact varint record:
//
//	uvarint at          absolute virtual-time tick
//	uvarint kind        value from the shared internal/trace vocabulary
//	strref  thread      acting thread
//	strref  object      monitor or object
//	strref  other       counterpart thread
//	varint  n           zigzag numeric payload
//	varint  aux         zigzag second numeric payload
//	strref  detail      constant or runtime-held name
//
// where strref is a single uvarint d: d == 0 is the empty string, odd d is
// the interned string-table id d>>1 (ids are 1-based), and even d > 0 is an
// inline string of d>>1 bytes that follow immediately — the overflow path
// once the intern table hits its cap. Records are self-delimiting only
// through the ring's length prefix, so the codec never writes one.
package fr

import (
	"encoding/binary"
	"fmt"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// stringTable interns the strings events carry — thread, monitor and
// method names are drawn from a small fixed set, so the table converges
// fast and the append path stops allocating. The cap bounds memory on
// adversarial high-cardinality details; past it, strings go inline.
type stringTable struct {
	ids  map[string]uint32
	strs []string // id i ↔ strs[i-1]
	max  int
}

func newStringTable(max int) *stringTable {
	return &stringTable{ids: make(map[string]uint32, 64), max: max}
}

// intern returns the table id for s, assigning one on first sight. ok is
// false when the table is full and s is not already present.
func (t *stringTable) intern(s string) (uint32, bool) {
	if id, ok := t.ids[s]; ok {
		return id, true
	}
	if len(t.strs) >= t.max {
		return 0, false
	}
	t.strs = append(t.strs, s)
	id := uint32(len(t.strs))
	t.ids[s] = id
	return id, true
}

// strCache is a small per-field memo in front of the intern map. Events
// cycle through a handful of thread/monitor names (often the very same
// string header, making the == below a pointer compare), so a four-entry
// linear scan absorbs alternating threads where a single entry would
// thrash straight back to the map and its hashing.
type strCache struct {
	s    [4]string
	id   [4]uint32
	next uint8
}

// appendStr encodes one string field.
func appendStr(dst []byte, s string, tab *stringTable, cache *strCache) []byte {
	if s == "" {
		return append(dst, 0)
	}
	for i, cs := range cache.s {
		if cs == s {
			return binary.AppendUvarint(dst, uint64(cache.id[i])<<1|1)
		}
	}
	if id, ok := tab.intern(s); ok {
		i := cache.next & 3
		cache.s[i], cache.id[i] = s, id
		cache.next++
		return binary.AppendUvarint(dst, uint64(id)<<1|1)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s))<<1)
	return append(dst, s...)
}

// appendEvent encodes one event record payload. caches holds the
// per-field memos for thread, object, other and detail.
func appendEvent(dst []byte, e *trace.Event, tab *stringTable, caches *[4]strCache) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.At))
	dst = binary.AppendUvarint(dst, uint64(e.Kind))
	dst = appendStr(dst, e.Thread, tab, &caches[0])
	dst = appendStr(dst, e.Object, tab, &caches[1])
	dst = appendStr(dst, e.Other, tab, &caches[2])
	dst = binary.AppendVarint(dst, e.N)
	dst = binary.AppendVarint(dst, e.Aux)
	return appendStr(dst, e.Detail, tab, &caches[3])
}

// decoder reads event payloads back against a resolved string table.
type decoder struct {
	strs []string
}

func (d *decoder) str(buf []byte) (string, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return "", nil, fmt.Errorf("fr: truncated string ref")
	}
	buf = buf[n:]
	if v == 0 {
		return "", buf, nil
	}
	if v&1 == 1 {
		id := v >> 1
		if id == 0 || id > uint64(len(d.strs)) {
			return "", nil, fmt.Errorf("fr: string id %d out of table range %d", id, len(d.strs))
		}
		return d.strs[id-1], buf, nil
	}
	l := int(v >> 1)
	if l > len(buf) {
		return "", nil, fmt.Errorf("fr: inline string of %d bytes overruns record", l)
	}
	return string(buf[:l]), buf[l:], nil
}

// decodeEvent decodes one record payload.
func (d *decoder) decodeEvent(buf []byte) (trace.Event, error) {
	var e trace.Event
	at, n := binary.Uvarint(buf)
	if n <= 0 {
		return e, fmt.Errorf("fr: truncated timestamp")
	}
	buf = buf[n:]
	kind, n := binary.Uvarint(buf)
	if n <= 0 {
		return e, fmt.Errorf("fr: truncated kind")
	}
	buf = buf[n:]
	if !trace.ValidKind(trace.Kind(kind)) {
		return e, fmt.Errorf("fr: unknown event kind %d (vocabulary has %d)", kind, len(trace.Names()))
	}
	e.At = simtime.Ticks(at)
	e.Kind = trace.Kind(kind)
	var err error
	if e.Thread, buf, err = d.str(buf); err != nil {
		return e, err
	}
	if e.Object, buf, err = d.str(buf); err != nil {
		return e, err
	}
	if e.Other, buf, err = d.str(buf); err != nil {
		return e, err
	}
	for _, p := range [...]*int64{&e.N, &e.Aux} {
		v, n := binary.Varint(buf)
		if n <= 0 {
			return e, fmt.Errorf("fr: truncated numeric payload")
		}
		*p = v
		buf = buf[n:]
	}
	if e.Detail, buf, err = d.str(buf); err != nil {
		return e, err
	}
	if len(buf) != 0 {
		return e, fmt.Errorf("fr: %d trailing bytes in event record", len(buf))
	}
	return e, nil
}

// decodeRecords decodes a linearized records block (count length-prefixed
// records) against the string table. count is untrusted: every record
// takes at least one byte, so a count beyond the block's length is
// rejected before anything is sized from it.
func decodeRecords(records []byte, count uint64, strs []string) ([]trace.Event, error) {
	if count > uint64(len(records)) {
		return nil, fmt.Errorf("fr: %d records claimed in %d bytes", count, len(records))
	}
	d := decoder{strs: strs}
	events := make([]trace.Event, 0, count)
	for i := uint64(0); i < count; i++ {
		plen, n := binary.Uvarint(records)
		if n <= 0 {
			return nil, fmt.Errorf("fr: record %d: truncated length prefix", i)
		}
		records = records[n:]
		if uint64(len(records)) < plen {
			return nil, fmt.Errorf("fr: record %d: payload %d exceeds remaining %d bytes", i, plen, len(records))
		}
		e, err := d.decodeEvent(records[:plen])
		if err != nil {
			return nil, fmt.Errorf("fr: record %d: %w", i, err)
		}
		events = append(events, e)
		records = records[plen:]
	}
	if len(records) != 0 {
		return nil, fmt.Errorf("fr: %d trailing bytes after %d records", len(records), count)
	}
	return events, nil
}

// encodeRecords encodes events into a fresh records block plus the string
// table it references — the write path for dumps assembled from decoded
// events rather than from a live ring (tests, converters).
func encodeRecords(events []trace.Event, maxStrings int) (records []byte, strs []string) {
	tab := newStringTable(maxStrings)
	var caches [4]strCache
	var buf []byte
	for i := range events {
		buf = appendEvent(buf[:0], &events[i], tab, &caches)
		records = binary.AppendUvarint(records, uint64(len(buf)))
		records = append(records, buf...)
	}
	return records, tab.strs
}
