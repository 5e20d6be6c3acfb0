package plan

import (
	"bytes"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"

	"cloudviews/internal/data"
)

// This file is the one renderer of the canonical text signatures hash. Every
// rendering appends to a caller's buffer, so a caller that passes a stack
// array — the signer, normalization's comparisons — allocates nothing unless
// the text outgrows it.

// AppendCanonical appends e's normalization-stable rendering to dst. A
// parameter renders as its name and value; recurring renders it by name only,
// the form the paper's recurring signatures hash.
func AppendCanonical(dst []byte, e Expr, recurring bool) []byte {
	switch x := e.(type) {
	case *ColRef:
		dst = appendLower(append(dst, "col:"...), x.Name)
		return strconv.AppendInt(append(dst, '#'), int64(x.Index), 10)
	case *Const:
		dst = append(append(append(dst, "lit:"...), x.Val.Kind.String()...), ':')
		return data.AppendValue(dst, x.Val)
	case *Param:
		dst = append(append(dst, "param:"...), x.Name...)
		if recurring {
			return dst
		}
		return data.AppendValue(append(dst, '='), x.Val)
	case *Binary:
		dst = AppendCanonical(append(dst, '('), x.L, recurring)
		dst = append(append(append(dst, ' '), x.Op...), ' ')
		return append(AppendCanonical(dst, x.R, recurring), ')')
	case *Unary:
		dst = append(append(append(dst, '('), x.Op...), ' ')
		return append(AppendCanonical(dst, x.E, recurring), ')')
	case *Call:
		dst = append(append(dst, x.Name...), '(')
		for i, a := range x.Args {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendCanonical(dst, a, recurring)
		}
		return append(dst, ')')
	}
	return dst
}

// Canonical is e's strict rendering as a string (see AppendCanonical).
func Canonical(e Expr) string { return string(AppendCanonical(nil, e, false)) }

// compareCanonical orders two expressions by their strict renderings, rendered
// into stack buffers.
func compareCanonical(a, b Expr) int {
	var ba, bb [256]byte
	return bytes.Compare(AppendCanonical(ba[:0], a, false), AppendCanonical(bb[:0], b, false))
}

// AppendAttrs appends the rendering of n's own attributes, not its inputs',
// that signatures hash. recurring omits the time-varying ones: input GUIDs,
// parameter values and the output target.
func AppendAttrs(dst []byte, n Node, recurring bool) []byte {
	switch x := n.(type) {
	case *Scan:
		dst = append(append(dst, "ds="...), x.Dataset...)
		if recurring {
			return dst
		}
		return append(append(dst, ",guid="...), x.GUID...)
	case *Filter:
		return AppendCanonical(append(dst, "pred="...), x.Pred, recurring)
	case *Project:
		dst = append(dst, "exprs=["...)
		for i, e := range x.Exprs {
			if i > 0 {
				dst = append(dst, ';')
			}
			dst = append(appendLower(dst, x.Names[i]), "<-"...)
			dst = AppendCanonical(dst, e, recurring)
		}
		return append(dst, ']')
	case *Join:
		dst = appendKeyPairs(append(dst, "keys=["...), x, recurring)
		dst = append(dst, ']')
		if x.Residual != nil {
			dst = AppendCanonical(append(dst, ",residual="...), x.Residual, recurring)
		}
		return dst
	case *Aggregate:
		dst = append(dst, "groupby=["...)
		for i, g := range x.GroupBy {
			if i > 0 {
				dst = append(dst, ';')
			}
			dst = AppendCanonical(dst, g, recurring)
		}
		dst = append(dst, "],aggs=["...)
		for i, s := range x.Aggs {
			if i > 0 {
				dst = append(dst, ';')
			}
			dst = append(append(dst, s.Kind.String()...), '(')
			if s.Arg == nil {
				dst = append(dst, '*')
			} else {
				dst = AppendCanonical(dst, s.Arg, recurring)
			}
			dst = appendLower(append(dst, ")->"...), s.Name)
		}
		return append(dst, ']')
	case *UDO:
		var buf [8]string
		deps := append(buf[:0], x.Depends...)
		slices.Sort(deps)
		dst = append(append(append(dst, "udo="...), x.Name...), ",deps=["...)
		for i, d := range deps {
			if i > 0 {
				dst = append(dst, ';')
			}
			dst = append(dst, d...)
		}
		return strconv.AppendBool(append(dst, "],nondet="...), x.Nondet)
	case *Sample:
		return strconv.AppendFloat(append(dst, "pct="...), x.Percent, 'g', -1, 64)
	case *Sort:
		dst = append(dst, "keys=["...)
		for i, k := range x.Keys {
			if i > 0 {
				dst = append(dst, ';')
			}
			dst = AppendCanonical(dst, k, recurring)
			if x.Desc[i] {
				dst = append(dst, " desc"...)
			}
		}
		return append(dst, ']')
	case *Output:
		if recurring {
			// Output targets often embed dates; treat as time-varying.
			return dst
		}
		return append(append(dst, "target="...), x.Target...)
	case *ViewScan:
		return append(append(dst, "view="...), x.StrictSig...)
	}
	// Union and Spool have no attributes; a Spool is transparent to
	// signatures.
	return dst
}

// appendKeyPairs appends j's key pairs, each "left=right", in byte order of
// their renderings and separated by ';': key pairs are order-insensitive for
// matching purposes. The pairs are rendered in place and, when there is more
// than one, reordered through a stack copy.
func appendKeyPairs(dst []byte, j *Join, recurring bool) []byte {
	start := len(dst)
	var spanBuf [8][2]int
	spans := spanBuf[:0]
	for i, l := range j.LeftKeys {
		lo := len(dst)
		dst = AppendCanonical(dst, l, recurring)
		dst = AppendCanonical(append(dst, '='), j.RightKeys[i], recurring)
		spans = append(spans, [2]int{lo - start, len(dst) - start})
	}
	if len(spans) < 2 {
		return dst
	}
	var tmp [256]byte
	rendered := append(tmp[:0], dst[start:]...)
	slices.SortFunc(spans, func(a, b [2]int) int {
		return bytes.Compare(rendered[a[0]:a[1]], rendered[b[0]:b[1]])
	})
	dst = dst[:start]
	for i, s := range spans {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = append(dst, rendered[s[0]:s[1]]...)
	}
	return dst
}

// appendLower appends strings.ToLower(s) to dst without building it: ASCII
// bytes fold one by one, and every other rune folds with unicode.ToLower, an
// invalid byte — the lexer admits Latin-1 letters as single bytes — becoming
// U+FFFD as strings.ToLower has it.
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
		i += size
	}
	return dst
}

// equalLower reports whether strings.ToLower(a) == strings.ToLower(b), folding
// both into stack buffers.
func equalLower(a, b string) bool {
	var ba, bb [64]byte
	return bytes.Equal(appendLower(ba[:0], a), appendLower(bb[:0], b))
}
