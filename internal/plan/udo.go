package plan

import (
	"strings"
	"sync"

	"cloudviews/internal/data"
)

// UDOImpl is the executable implementation of a user-defined operator. SCOPE
// UDOs are arbitrary C# row processors; here they are Go functions registered
// by name. Apply may emit zero or more rows per input row.
type UDOImpl struct {
	Name string
	// OutSchema derives the output schema from the input schema.
	OutSchema func(in data.Schema) data.Schema
	// Apply processes one input row. The row is read-only — it may be a row
	// of a catalog version or a sealed view that every other job reads too —
	// so Apply emits it as it is or emits a copy (ctx.CloneRow), and never
	// writes to it.
	Apply func(in data.Row, emit func(data.Row), ctx *EvalContext)
	// Cell, set by Appending and nil otherwise, is an appending UDO's one
	// definition: the cell it appends to an input row, which it emits once.
	// OutSchema and Apply are derived from it, and the executor calls it
	// instead of Apply where it hands the input rows over by position, the
	// cells beside them, and copies no row.
	Cell func(in data.Row, ctx *EvalContext) data.Value
	// Deterministic reports whether the implementation is free of
	// non-determinism. Operators marked false are excluded from reuse, per
	// the paper's signature-correctness policy.
	Deterministic bool
}

// Appending returns the UDO that emits every input row once, followed by the
// cell cell computes from it, in column col. Its OutSchema and Apply are
// derived from cell: Apply emits a copy of the row carved from the context's
// slab (ctx.CloneRow) with the cell in its last place.
func Appending(name string, deterministic bool, col data.Column, cell func(in data.Row, ctx *EvalContext) data.Value) *UDOImpl {
	return &UDOImpl{
		Name:          name,
		Deterministic: deterministic,
		Cell:          cell,
		OutSchema: func(in data.Schema) data.Schema {
			return append(append(make(data.Schema, 0, len(in)+1), in...), col)
		},
		Apply: func(in data.Row, emit func(data.Row), ctx *EvalContext) {
			out := ctx.CloneRow(in, 1)
			out[len(in)] = cell(in, ctx)
			emit(out)
		},
	}
}

var (
	udoMu       sync.RWMutex
	udoRegistry = map[string]*UDOImpl{}
)

// RegisterUDO installs an implementation, replacing any previous registration
// with the same (case-insensitive) name. It is registered under its name as
// declared and lower-cased, so a lookup spelled as declared folds no case.
func RegisterUDO(impl *UDOImpl) {
	udoMu.Lock()
	defer udoMu.Unlock()
	low := strings.ToLower(impl.Name)
	if old, ok := udoRegistry[low]; ok {
		delete(udoRegistry, old.Name)
	}
	udoRegistry[low] = impl
	udoRegistry[impl.Name] = impl
}

// LookupUDO finds a registered implementation: by name as written, then
// case-insensitively.
func LookupUDO(name string) (*UDOImpl, bool) {
	udoMu.RLock()
	defer udoMu.RUnlock()
	if impl, ok := udoRegistry[name]; ok {
		return impl, true
	}
	impl, ok := udoRegistry[strings.ToLower(name)]
	return impl, ok
}

func init() {
	// NormalizeStrings lower-cases every string column: a typical cleansing
	// UDO in cooking pipelines. Copy on write: the input row is cloned at the
	// first cell lower-casing changes; a row that is already clean is emitted
	// as it came in, the way DropEmpty passes rows on.
	RegisterUDO(&UDOImpl{
		Name:          "NormalizeStrings",
		Deterministic: true,
		OutSchema:     func(in data.Schema) data.Schema { return in.Clone() },
		Apply: func(in data.Row, emit func(data.Row), ctx *EvalContext) {
			out := in
			cloned := false
			for i, v := range in {
				if v.Kind != data.KindString {
					continue
				}
				low := strings.ToLower(v.Str())
				if low == v.Str() {
					continue
				}
				if !cloned {
					out, cloned = ctx.CloneRow(in, 0), true
				}
				out[i] = data.String_(low)
			}
			emit(out)
		},
	})

	// DropEmpty filters out rows whose first string column is empty —
	// a validity scrubber.
	RegisterUDO(&UDOImpl{
		Name:          "DropEmpty",
		Deterministic: true,
		OutSchema:     func(in data.Schema) data.Schema { return in.Clone() },
		Apply: func(in data.Row, emit func(data.Row), _ *EvalContext) {
			for _, v := range in {
				if v.Kind == data.KindString {
					if v.Str() == "" {
						return
					}
					break
				}
			}
			emit(in)
		},
	})

	// AddRowTag appends a deterministic hash column, as enrichment UDOs do.
	// The tag is the FNV hash of every cell's String() rendering: a string
	// cell's own bytes, any other cell's streamed through one buffer by
	// data.AppendValue.
	RegisterUDO(Appending("AddRowTag", true, data.Column{Name: "row_tag", Kind: data.KindInt},
		func(in data.Row, _ *EvalContext) data.Value {
			var buf [96]byte
			h := data.FNVOffset
			for _, v := range in {
				if v.Kind == data.KindString {
					h = data.FNV64a(h, v.S)
				} else {
					h = data.FNV64a(h, data.AppendValue(buf[:0], v))
				}
			}
			return data.Int(int64(h & 0x7fffffffffffffff))
		}))

	// StampIngestTime appends the current time — non-deterministic BY DESIGN,
	// the paper's DateTime.Now example. Reuse must skip plans containing it.
	RegisterUDO(Appending("StampIngestTime", false, data.Column{Name: "ingest_time", Kind: data.KindTime},
		func(_ data.Row, ctx *EvalContext) data.Value {
			return data.Value{Kind: data.KindTime, I: ctx.NowNanos}
		}))
}
