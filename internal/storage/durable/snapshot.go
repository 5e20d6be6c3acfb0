package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"cloudviews/internal/storage"
)

// writeSnapshotFile renders the state, frames it (length + CRC32C, same
// framing as WAL records), writes it to a temp file, and atomically renames
// it over the live snapshot. crashBeforeRename, when non-nil, is called
// between the temp write and the rename — the injected snapshot crash point;
// returning true abandons the rename, leaving the stray temp file for
// recovery to ignore.
func writeSnapshotFile(dir string, st *storage.StoreState, lastSeq uint64, lastTS int64, crashBeforeRename func() bool) (crashed bool, err error) {
	frame := frameRecord(encodeState(st, lastSeq, lastTS))
	tmp := filepath.Join(dir, snapshotTemp)
	if err := os.WriteFile(tmp, frame, 0o644); err != nil {
		return false, fmt.Errorf("durable: writing snapshot temp: %w", err)
	}
	if crashBeforeRename != nil && crashBeforeRename() {
		return true, nil
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotName)); err != nil {
		return false, fmt.Errorf("durable: publishing snapshot: %w", err)
	}
	return false, nil
}

// loadSnapshotFile reads the live snapshot. ok=false when none exists yet. A
// snapshot that fails its checksum or decode is an error: the rename
// discipline means the file is always a complete previous write, so
// corruption here is disk rot, not a crash artifact.
func loadSnapshotFile(dir string) (st *storage.StoreState, lastSeq uint64, lastTS int64, ok bool, err error) {
	b, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, 0, false, nil
		}
		return nil, 0, 0, false, fmt.Errorf("durable: reading snapshot: %w", err)
	}
	payload, err := unframe(b)
	if err != nil {
		return nil, 0, 0, false, fmt.Errorf("durable: snapshot corrupt: %w", err)
	}
	st, lastSeq, lastTS, err = decodeState(payload)
	if err != nil {
		// Intact bytes this version cannot read: rot, or another format.
		return nil, 0, 0, false, fmt.Errorf("durable: snapshot unreadable: %w", err)
	}
	return st, lastSeq, lastTS, true, nil
}

// unframe validates a single [len|crc|payload] frame spanning exactly b.
// The frame layout matches WAL records, but the payload here is snapshot
// state, so decodeFrame (which parses a record body) does not apply.
func unframe(b []byte) ([]byte, error) {
	if len(b) < frameOverhead {
		return nil, fmt.Errorf("short frame (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n <= 0 || n != len(b)-frameOverhead {
		return nil, fmt.Errorf("frame length %d does not match file size %d", n, len(b))
	}
	want := binary.LittleEndian.Uint32(b[4:])
	payload := b[frameOverhead:]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("checksum mismatch: got %08x want %08x", got, want)
	}
	return payload, nil
}
