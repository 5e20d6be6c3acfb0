package durable

import (
	"fmt"
	"os"
	"path/filepath"
)

const (
	walName      = "wal.log"
	snapshotName = "snapshot.cv"
	snapshotTemp = "snapshot.cv.tmp"
)

// walWriter appends framed records to the log file. It performs no
// buffering of its own: every append reaches the OS before the in-memory
// apply, which is the ordering the crash points (and recovery proofs) rely
// on. Sync additionally fsyncs each append.
type walWriter struct {
	f    *os.File
	sync bool
}

func openWAL(dir string, sync bool) (*walWriter, error) {
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: opening WAL: %w", err)
	}
	return &walWriter{f: f, sync: sync}, nil
}

// append frames and writes one record.
func (w *walWriter) append(rec *record) error {
	frame := frameRecord(encodeRecordPayload(rec))
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("durable: appending WAL record: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("durable: syncing WAL: %w", err)
		}
	}
	return nil
}

// appendTorn writes only a prefix of the record's frame — the injected
// mid-append crash. The torn length is cut inside the payload (past the
// header when possible) so recovery exercises the checksum path, not just the
// short-header path.
func (w *walWriter) appendTorn(rec *record) error {
	frame := frameRecord(encodeRecordPayload(rec))
	cut := len(frame) / 2
	if cut == 0 {
		cut = 1
	}
	if _, err := w.f.Write(frame[:cut]); err != nil {
		return fmt.Errorf("durable: appending torn WAL record: %w", err)
	}
	return nil
}

// truncate resets the log to empty (after a successful snapshot).
func (w *walWriter) truncate() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	// O_APPEND writes track the (now zero) end of file; no seek needed.
	return nil
}

func (w *walWriter) close() error { return w.f.Close() }

// walScan is the result of reading a WAL file back.
type walScan struct {
	records []*record
	// tornTruncated is 1 when a torn or corrupt tail was found (and
	// dropped), 0 otherwise. The scan stops at the first bad frame:
	// everything after it is unordered garbage by definition.
	tornTruncated int
	// goodLen is the byte offset of the end of the last valid record.
	goodLen int64
}

// scanWAL reads every valid record from the directory's WAL. A missing file
// is an empty log. Torn tails are detected, counted, and reported via
// goodLen so the caller can physically truncate.
func scanWAL(dir string) (*walScan, error) {
	b, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		if os.IsNotExist(err) {
			return &walScan{}, nil
		}
		return nil, fmt.Errorf("durable: reading WAL: %w", err)
	}
	sc := &walScan{}
	off := 0
	for off < len(b) {
		rec, n, err := decodeFrame(b[off:])
		if err != nil {
			sc.tornTruncated = 1
			break
		}
		sc.records = append(sc.records, rec)
		off += n
	}
	sc.goodLen = int64(off)
	return sc, nil
}
