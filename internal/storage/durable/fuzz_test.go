package durable

import (
	"bytes"
	"testing"
)

// FuzzWALDecode throws arbitrary bytes at the full WAL decode surface:
// frame parsing, record payload decoding (including nested tables), and
// snapshot state decoding. The codec must never panic, and anything it does
// accept must re-encode canonically (decode∘encode is the identity on the
// accepted set).
func FuzzWALDecode(f *testing.F) {
	// Seed corpus: every record type, a snapshot, and some near-miss
	// corruptions so the fuzzer starts at the interesting boundaries.
	for _, rec := range walTestRecords() {
		f.Add(frameRecord(encodeRecordPayload(rec)))
	}
	// The retired kinds are never written any more; seeding one frame of
	// each keeps the decode-and-skip path fuzzed.
	for _, kind := range []recType{recExpire, recFetch} {
		f.Add(frameRecord(encodeRecordPayload(&record{Seq: 9, Type: kind, TS: 900, Strict: "strict-sig-01"})))
	}
	snap := encodeState(buildOracle(genOps(1, 60), -1, false).ExportState(), 7, 42)
	f.Add(frameRecord(snap))
	torn := frameRecord(encodeRecordPayload(walTestRecords()[2]))
	f.Add(torn[:len(torn)/2])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		// Frame + record path: must not panic; on success the record must
		// re-encode to the exact payload bytes it was decoded from.
		if rec, n, err := decodeFrame(b); err == nil {
			if n < frameOverhead || n > len(b) {
				t.Fatalf("decodeFrame consumed %d of %d bytes", n, len(b))
			}
			if got := encodeRecordPayload(rec); !bytes.Equal(got, b[frameOverhead:n]) {
				t.Fatalf("record decode/encode not canonical")
			}
		}
		// Raw payload path (what decodeFrame calls after CRC): same law,
		// exercised without needing the fuzzer to forge checksums.
		if rec, err := decodeRecordPayload(b); err == nil {
			if got := encodeRecordPayload(rec); !bytes.Equal(got, b) {
				t.Fatalf("payload decode/encode not canonical")
			}
		}
		// Snapshot state path: must not panic; accepted states must
		// round-trip byte-identically (the crash harness's comparison
		// depends on canonical encoding).
		if st, seq, ts, err := decodeState(b); err == nil {
			if got := encodeState(st, seq, ts); !bytes.Equal(got, b) {
				t.Fatalf("state decode/encode not canonical")
			}
		}
	})
}
