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
	// Deterministic reports whether the implementation is free of
	// non-determinism. Operators marked false are excluded from reuse, per
	// the paper's signature-correctness policy.
	Deterministic bool
}

var (
	udoMu       sync.RWMutex
	udoRegistry = map[string]*UDOImpl{}
)

// RegisterUDO installs an implementation, replacing any previous registration
// with the same (case-insensitive) name.
func RegisterUDO(impl *UDOImpl) {
	udoMu.Lock()
	defer udoMu.Unlock()
	udoRegistry[strings.ToLower(impl.Name)] = impl
}

// LookupUDO finds a registered implementation.
func LookupUDO(name string) (*UDOImpl, bool) {
	udoMu.RLock()
	defer udoMu.RUnlock()
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
	RegisterUDO(&UDOImpl{
		Name:          "AddRowTag",
		Deterministic: true,
		OutSchema: func(in data.Schema) data.Schema {
			out := in.Clone()
			return append(out, data.Column{Name: "row_tag", Kind: data.KindInt})
		},
		Apply: func(in data.Row, emit func(data.Row), ctx *EvalContext) {
			h := data.FNVOffset
			for _, v := range in {
				h = data.FNV64a(h, v.String())
			}
			out := ctx.CloneRow(in, 1)
			out[len(in)] = data.Int(int64(h & 0x7fffffffffffffff))
			emit(out)
		},
	})

	// StampIngestTime appends the current time — non-deterministic BY DESIGN,
	// the paper's DateTime.Now example. Reuse must skip plans containing it.
	RegisterUDO(&UDOImpl{
		Name:          "StampIngestTime",
		Deterministic: false,
		OutSchema: func(in data.Schema) data.Schema {
			out := in.Clone()
			return append(out, data.Column{Name: "ingest_time", Kind: data.KindTime})
		},
		Apply: func(in data.Row, emit func(data.Row), ctx *EvalContext) {
			out := ctx.CloneRow(in, 1)
			out[len(in)] = data.Value{Kind: data.KindTime, I: ctx.NowNanos}
			emit(out)
		},
	})
}
