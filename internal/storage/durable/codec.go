// Package durable is the file-backed view-store engine: a persistent,
// crash-recoverable implementation of storage.Engine.
//
// On-disk layout (one data directory per engine):
//
//	wal.log      append-only log of length-prefixed, CRC32C-checksummed
//	             mutation records (stage, materialize, seal, abandon, purge,
//	             purge-vc, gc, set-ttl)
//	snapshot.cv  periodic full-state snapshot, written to a temp file and
//	             atomically renamed into place
//
// Only mutations are logged. Reading the store is a read (see package
// storage): no read evicts, counts or appends anything, so the log holds
// exactly the calls that changed state, and a view past its TTL leaves the
// state inside a logged Stage, Materialize, SealAt or GC.
//
// Recovery loads the snapshot (if any), replays every WAL record with a
// sequence number past the snapshot watermark under a clock pinned to each
// record's logged timestamp — so each write evicts an expired resident
// exactly when it did live — then abandons mid-transaction views (staged or
// unsealed: their producing job died with the process) and rewrites a fresh
// snapshot. Torn or corrupt tail records are truncated and counted. The
// recovered state is byte-identical to an in-memory store that executed the
// committed prefix of the same operation stream.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"time"

	"cloudviews/internal/data"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

// recType tags one WAL record kind.
type recType uint8

// The values are the on-disk format. recExpire and recFetch are retired: the
// engine writes neither, but the codec still accepts them and replay skips
// them, so a log that carries them is read through rather than cut off at
// the first one as if it were a torn tail.
const (
	recStage       recType = 1
	recMaterialize recType = 2
	recSeal        recType = 3
	recAbandon     recType = 4
	recPurge       recType = 5
	recPurgeVC     recType = 6
	recGC          recType = 7
	recExpire      recType = 8 // retired: a read's lazy TTL eviction
	recFetch       recType = 9 // retired: a counted read
	recSetTTL      recType = 10

	recTypeMax = recSetTTL
)

func (t recType) String() string {
	switch t {
	case recStage:
		return "stage"
	case recMaterialize:
		return "materialize"
	case recSeal:
		return "seal"
	case recAbandon:
		return "abandon"
	case recPurge:
		return "purge"
	case recPurgeVC:
		return "purge-vc"
	case recGC:
		return "gc"
	case recExpire:
		return "expire"
	case recFetch:
		return "fetch"
	case recSetTTL:
		return "set-ttl"
	default:
		return fmt.Sprintf("rec(%d)", uint8(t))
	}
}

// record is one decoded WAL entry. Unused fields are zero for record types
// that do not carry them.
type record struct {
	Seq  uint64
	Type recType
	TS   int64 // simulated time of the mutation, Unix nanoseconds

	Strict    signature.Sig
	Recurring signature.Sig
	Path      string
	VC        string
	Mult      float64
	SealAt    int64 // recSeal: the early-sealing instant
	TTL       int64 // recSetTTL: nanoseconds
	Table     *data.Table
}

// castagnoli is the CRC32C table (the checksum the paper-scale storage
// stacks use for record framing).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxRecordLen bounds a single record frame; anything larger in the length
// prefix is corruption, not data.
const maxRecordLen = 1 << 28

// frameOverhead is the per-record framing cost: u32 length + u32 CRC32C.
const frameOverhead = 8

// buf is a tiny append-only encoder; all integers are little-endian.
type buf struct{ b []byte }

func (w *buf) u8(v uint8)    { w.b = append(w.b, v) }
func (w *buf) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *buf) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *buf) i64(v int64)   { w.u64(uint64(v)) }
func (w *buf) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *buf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// rbuf is the matching decoder; every read is bounds-checked so arbitrary
// (fuzzed) input can never panic.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("durable: truncated %s at offset %d", what, r.off)
	}
}

func (r *rbuf) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail("u8")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *rbuf) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rbuf) i64() int64   { return int64(r.u64()) }
func (r *rbuf) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *rbuf) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if int(n) > len(r.b)-r.off {
		r.fail("string")
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *rbuf) remaining() int { return len(r.b) - r.off }

// --- table codec ---

func encodeTable(w *buf, t *data.Table) {
	if t == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	w.u32(uint32(len(t.Schema)))
	for _, c := range t.Schema {
		w.str(c.Name)
		w.u8(uint8(c.Kind))
	}
	w.u32(uint32(len(t.Rows)))
	for _, row := range t.Rows {
		for _, v := range row {
			encodeValue(w, v)
		}
	}
}

func encodeValue(w *buf, v data.Value) {
	w.u8(uint8(v.Kind))
	switch v.Kind {
	case data.KindNull:
	case data.KindInt, data.KindTime:
		w.i64(v.I)
	case data.KindFloat:
		w.f64(v.F)
	case data.KindString:
		w.str(v.Str())
	case data.KindBool:
		if v.B {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}
}

func decodeTable(r *rbuf) *data.Table {
	present := r.u8()
	if r.err != nil || present == 0 {
		return nil
	}
	if present != 1 {
		// Only 0/1 are canonical; anything else is corruption.
		r.fail("table present flag")
		return nil
	}
	ncols := r.u32()
	if r.err != nil || int(ncols) > r.remaining() {
		r.fail("schema")
		return nil
	}
	schema := make(data.Schema, 0, ncols)
	for i := uint32(0); i < ncols; i++ {
		name := r.str()
		kind := data.Kind(r.u8())
		if kind > data.KindTime {
			r.fail("column kind")
			return nil
		}
		schema = append(schema, data.Column{Name: name, Kind: kind})
	}
	nrows := r.u32()
	if r.err != nil || int(nrows) > r.remaining()+1 {
		// Each row needs at least one byte per column (or zero columns, in
		// which case rows carry no bytes at all — allow nrows up to the
		// remaining budget plus slack for that degenerate shape).
		r.fail("row count")
		return nil
	}
	t := data.NewTable(schema)
	for i := uint32(0); i < nrows && r.err == nil; i++ {
		row := make(data.Row, len(schema))
		for j := range schema {
			row[j] = decodeValue(r)
		}
		if r.err != nil {
			return nil
		}
		t.Rows = append(t.Rows, row)
	}
	if r.err != nil {
		return nil
	}
	return t
}

func decodeValue(r *rbuf) data.Value {
	kind := data.Kind(r.u8())
	switch kind {
	case data.KindNull:
		return data.Null()
	case data.KindInt:
		return data.Value{Kind: data.KindInt, I: r.i64()}
	case data.KindTime:
		return data.Value{Kind: data.KindTime, I: r.i64()}
	case data.KindFloat:
		return data.Value{Kind: data.KindFloat, F: r.f64()}
	case data.KindString:
		return data.Value{Kind: data.KindString, S: r.str()}
	case data.KindBool:
		switch r.u8() {
		case 0:
			return data.Value{Kind: data.KindBool, B: false}
		case 1:
			return data.Value{Kind: data.KindBool, B: true}
		default:
			// Strictness keeps the encoding canonical: exactly one byte
			// sequence per value, so byte comparison == semantic comparison.
			r.fail("bool value")
			return data.Value{}
		}
	default:
		r.fail("value kind")
		return data.Value{}
	}
}

// --- record codec ---

// encodeRecordPayload renders the unframed payload: seq, type, ts, body.
func encodeRecordPayload(rec *record) []byte {
	w := &buf{}
	w.u64(rec.Seq)
	w.u8(uint8(rec.Type))
	w.i64(rec.TS)
	switch rec.Type {
	case recStage:
		w.str(string(rec.Strict))
		w.str(string(rec.Recurring))
		w.str(rec.Path)
		w.str(rec.VC)
	case recMaterialize:
		w.str(string(rec.Strict))
		w.str(rec.Path)
		w.str(rec.VC)
		w.f64(rec.Mult)
		encodeTable(w, rec.Table)
	case recSeal:
		w.str(string(rec.Strict))
		w.i64(rec.SealAt)
	case recAbandon, recPurge, recExpire, recFetch:
		w.str(string(rec.Strict))
	case recPurgeVC:
		w.str(rec.VC)
	case recGC:
	case recSetTTL:
		w.i64(rec.TTL)
	}
	return w.b
}

// frameRecord wraps a payload with the length + CRC32C header.
func frameRecord(payload []byte) []byte {
	out := make([]byte, 0, frameOverhead+len(payload))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// decodeRecordPayload parses one unframed payload. It never panics on
// arbitrary input and rejects trailing garbage.
func decodeRecordPayload(payload []byte) (*record, error) {
	r := &rbuf{b: payload}
	rec := &record{}
	rec.Seq = r.u64()
	rec.Type = recType(r.u8())
	rec.TS = r.i64()
	if r.err == nil && (rec.Type < recStage || rec.Type > recTypeMax) {
		return nil, fmt.Errorf("durable: unknown record type %d", rec.Type)
	}
	switch rec.Type {
	case recStage:
		rec.Strict = signature.Sig(r.str())
		rec.Recurring = signature.Sig(r.str())
		rec.Path = r.str()
		rec.VC = r.str()
	case recMaterialize:
		rec.Strict = signature.Sig(r.str())
		rec.Path = r.str()
		rec.VC = r.str()
		rec.Mult = r.f64()
		rec.Table = decodeTable(r)
		if r.err == nil && rec.Table == nil {
			return nil, fmt.Errorf("durable: materialize record without table")
		}
	case recSeal:
		rec.Strict = signature.Sig(r.str())
		rec.SealAt = r.i64()
	case recAbandon, recPurge, recExpire, recFetch:
		rec.Strict = signature.Sig(r.str())
	case recPurgeVC:
		rec.VC = r.str()
	case recGC:
	case recSetTTL:
		rec.TTL = r.i64()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("durable: %d trailing bytes after %s record", r.remaining(), rec.Type)
	}
	return rec, nil
}

// decodeFrame parses one framed record from the head of b, returning the
// record and the number of bytes consumed. A short, corrupt, or
// checksum-failing frame returns an error (and consumed=0); callers treat
// any error at the tail of a WAL as a torn write and truncate.
func decodeFrame(b []byte) (*record, int, error) {
	if len(b) < frameOverhead {
		return nil, 0, fmt.Errorf("durable: short frame header (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || n > maxRecordLen {
		return nil, 0, fmt.Errorf("durable: implausible record length %d", n)
	}
	if len(b) < frameOverhead+int(n) {
		return nil, 0, fmt.Errorf("durable: short frame: want %d payload bytes, have %d", n, len(b)-frameOverhead)
	}
	want := binary.LittleEndian.Uint32(b[4:])
	payload := b[frameOverhead : frameOverhead+int(n)]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, 0, fmt.Errorf("durable: record checksum mismatch: got %08x want %08x", got, want)
	}
	rec, err := decodeRecordPayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return rec, frameOverhead + int(n), nil
}

// --- snapshot state codec ---

// snapshotMagic versions the snapshot format. CVSNAP1 carried a per-view read
// count after SealedAt; a directory holding one is refused at Open.
const snapshotMagic = "CVSNAP2\n"

// encodeState renders a StoreState canonically (views and maps in sorted
// order), so two equal states encode to identical bytes — the property the
// crash harness's byte-identical comparison rests on.
func encodeState(st *storage.StoreState, lastSeq uint64, lastTS int64) []byte {
	w := &buf{}
	w.b = append(w.b, snapshotMagic...)
	w.u64(lastSeq)
	w.i64(lastTS)
	w.i64(int64(st.TTL))
	w.i64(st.Created)
	w.i64(st.Expired)
	w.i64(st.Purged)
	w.i64(st.Abandoned)

	w.u32(uint32(len(st.Views)))
	for i := range st.Views {
		encodeView(w, &st.Views[i], true)
	}
	w.u32(uint32(len(st.Pending)))
	for i := range st.Pending {
		encodeView(w, &st.Pending[i], false)
	}

	vcs := sortedKeys(st.ByVC)
	w.u32(uint32(len(vcs)))
	for _, vc := range vcs {
		w.str(vc)
		w.i64(st.ByVC[vc])
	}

	sigs := make([]string, 0, len(st.Gen))
	for sig := range st.Gen {
		sigs = append(sigs, string(sig))
	}
	slices.Sort(sigs)
	w.u32(uint32(len(sigs)))
	for _, sig := range sigs {
		w.str(sig)
		w.i64(st.Gen[signature.Sig(sig)])
	}
	return w.b
}

func encodeView(w *buf, v *storage.View, full bool) {
	w.str(string(v.Strict))
	w.str(string(v.Recurring))
	w.str(v.Path)
	w.str(v.VC)
	if !full {
		return
	}
	w.f64(v.Mult)
	w.i64(v.Rows)
	w.i64(v.Bytes)
	w.i64(v.CreatedAt.UnixNano())
	w.i64(v.ExpiresAt.UnixNano())
	if v.Sealed {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.i64(v.SealedAt.UnixNano())
	encodeTable(w, v.Table)
}

// decodeState parses a snapshot payload back into a StoreState plus the WAL
// sequence watermark it covers and the simulated time of the last record.
func decodeState(b []byte) (*storage.StoreState, uint64, int64, error) {
	if got := b[:min(len(b), len(snapshotMagic))]; string(got) != snapshotMagic {
		return nil, 0, 0, fmt.Errorf("durable: snapshot format %q, this version reads %q", got, snapshotMagic)
	}
	r := &rbuf{b: b, off: len(snapshotMagic)}
	lastSeq := r.u64()
	lastTS := r.i64()
	st := &storage.StoreState{
		TTL:  time.Duration(r.i64()),
		ByVC: make(map[string]int64),
		Gen:  make(map[signature.Sig]int64),
	}
	st.Created = r.i64()
	st.Expired = r.i64()
	st.Purged = r.i64()
	st.Abandoned = r.i64()

	nviews := r.u32()
	if r.err == nil && int(nviews) > r.remaining() {
		r.fail("view count")
	}
	for i := uint32(0); i < nviews && r.err == nil; i++ {
		v := decodeView(r, true)
		if r.err == nil {
			st.Views = append(st.Views, v)
		}
	}
	npending := r.u32()
	if r.err == nil && int(npending) > r.remaining()+1 {
		r.fail("pending count")
	}
	for i := uint32(0); i < npending && r.err == nil; i++ {
		v := decodeView(r, false)
		if r.err == nil {
			st.Pending = append(st.Pending, v)
		}
	}
	// Map keys are written sorted; require strictly increasing keys on the
	// way back in so duplicates and reorderings are corruption, not silently
	// collapsed (canonical decode∘encode identity).
	nvc := r.u32()
	prevVC := ""
	for i := uint32(0); i < nvc && r.err == nil; i++ {
		vc := r.str()
		if r.err == nil && i > 0 && vc <= prevVC {
			r.fail("vc map key order")
			break
		}
		prevVC = vc
		st.ByVC[vc] = r.i64()
	}
	ngen := r.u32()
	prevSig := ""
	for i := uint32(0); i < ngen && r.err == nil; i++ {
		sig := r.str()
		if r.err == nil && i > 0 && sig <= prevSig {
			r.fail("gen map key order")
			break
		}
		prevSig = sig
		st.Gen[signature.Sig(sig)] = r.i64()
	}
	if r.err != nil {
		return nil, 0, 0, r.err
	}
	if r.remaining() != 0 {
		return nil, 0, 0, fmt.Errorf("durable: %d trailing bytes after snapshot state", r.remaining())
	}
	return st, lastSeq, lastTS, nil
}

func decodeView(r *rbuf, full bool) storage.View {
	v := storage.View{
		Strict:    signature.Sig(r.str()),
		Recurring: signature.Sig(r.str()),
		Path:      r.str(),
		VC:        r.str(),
	}
	if !full {
		return v
	}
	v.Mult = r.f64()
	v.Rows = r.i64()
	v.Bytes = r.i64()
	v.CreatedAt = time.Unix(0, r.i64())
	v.ExpiresAt = time.Unix(0, r.i64())
	switch r.u8() {
	case 0:
		v.Sealed = false
	case 1:
		v.Sealed = true
	default:
		r.fail("sealed flag")
	}
	v.SealedAt = time.Unix(0, r.i64())
	v.Table = decodeTable(r)
	if r.err == nil && v.Table == nil {
		r.fail("view table")
	}
	return v
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
