package fr

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// craftedDump builds a minimal container holding one section whose
// leading count claims 1<<40 entries — a ~15-byte file that once made
// every reader size a slice from the count and die with an uncatchable
// out-of-memory fatal error.
func craftedDump(section byte) []byte {
	payload := binary.AppendUvarint(nil, 1<<40)
	if section == secEvents {
		payload = append(payload, 0) // lost count
	}
	b := append([]byte(nil), Magic...)
	b = binary.AppendUvarint(b, DumpVersion)
	b = append(b, section)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func TestReadDumpRejectsHugeCounts(t *testing.T) {
	for name, section := range map[string]byte{"strings": secStrings, "events": secEvents} {
		if _, err := ReadDump(bytes.NewReader(craftedDump(section))); err == nil {
			t.Errorf("%s section claiming 1<<40 entries decoded without error", name)
		}
	}
}

// TestReadDumpRejectsOtherVersions pins that this build reads only its own
// container version: version 1 records lack the aux varint.
func TestReadDumpRejectsOtherVersions(t *testing.T) {
	for _, v := range []uint64{0, 1, DumpVersion + 1} {
		b := binary.AppendUvarint(append([]byte(nil), Magic...), v)
		if _, err := ReadDump(bytes.NewReader(b)); err == nil {
			t.Errorf("container version %d accepted", v)
		}
	}
}

// FuzzReadDump feeds arbitrary bytes to the .rvmfr decoder. It must never
// panic or exhaust memory, and any dump it accepts must survive a
// write/read round trip with its event window intact. Seeds live in
// testdata/fuzz/FuzzReadDump: a dump recorded from examples/bank and the
// crafted huge-count dump.
func FuzzReadDump(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteDump(&buf, &Dump{Meta: Meta{V: DumpVersion, Reason: ReasonManual}, Events: sampleEvents()}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(craftedDump(secEvents))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteDump(&out, d); err != nil {
			t.Fatalf("re-encoding an accepted dump: %v", err)
		}
		back, err := ReadDump(&out)
		if err != nil {
			t.Fatalf("re-reading an accepted dump: %v", err)
		}
		if len(back.Events) != len(d.Events) || len(d.Events) > 0 && !reflect.DeepEqual(back.Events, d.Events) {
			t.Fatalf("event window changed across a round trip:\n got  %v\n want %v", back.Events, d.Events)
		}
	})
}
