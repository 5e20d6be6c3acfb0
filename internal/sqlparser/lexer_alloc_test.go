package sqlparser

import (
	"testing"
	"unicode"
)

// lexerAllocScript covers every token class whose hot path must not allocate:
// keywords in mixed case, identifiers, numbers, params, single- and
// multi-byte operators, and escape-free string literals.
const lexerAllocScript = `cooked = SELECT SaleId, Price * Quantity AS revenue, @start
 FROM Sales WHERE MktSegment = 'Asia' AND Price >= 1.5 OR Quantity <> 3
 GROUP BY SaleId ORDER BY revenue DESC;
OUTPUT cooked TO "out/cooked.ss";`

// TestLexerZeroAllocs pins the allocation-free contract of the incremental
// tokenizer: scanning a representative script with a reused value Lexer
// performs zero heap allocations.
func TestLexerZeroAllocs(t *testing.T) {
	var l Lexer
	var sink Token
	avg := testing.AllocsPerRun(200, func() {
		l.Reset(lexerAllocScript)
		for {
			tok, err := l.Next()
			if err != nil {
				t.Fatal(err)
			}
			sink = tok
			if tok.Kind == TokEOF {
				return
			}
		}
	})
	if avg != 0 {
		t.Fatalf("lexing allocated %.2f times per run, want 0", avg)
	}
	_ = sink
}

// TestLexZeroAmortizedAllocs pins the batch entry point to its single slice
// allocation (the token buffer), guarding against accidental per-token
// allocations sneaking back in.
func TestLexZeroAmortizedAllocs(t *testing.T) {
	var l Lexer
	avg := testing.AllocsPerRun(200, func() {
		l.Reset(lexerAllocScript)
		if _, err := l.Lex(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Fatalf("Lex allocated %.2f times per run, want <= 1 (the token slice)", avg)
	}
}

// TestLexerAliasesSource verifies Token.Text shares backing storage with the
// input (or canonical constants) rather than copying.
func TestLexerAliasesSource(t *testing.T) {
	toks, err := NewLexer(`select name, 'raw''esc' FROM T`).Lex()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind TokenKind
		text string
	}{
		{TokKeyword, "SELECT"}, {TokIdent, "name"}, {TokOp, ","},
		{TokString, "raw'esc"}, {TokKeyword, "FROM"}, {TokIdent, "T"}, {TokEOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d: got (%d,%q), want (%d,%q)", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

// TestIdentTablesMatchPredicates holds the byte classification tables to the
// predicates they were built from, over all 256 bytes: the Latin-1 letters
// above 0x7f that unicode.IsLetter accepts (0xe9) stay identifier bytes, the
// non-letters there (0xd7) stay out.
func TestIdentTablesMatchPredicates(t *testing.T) {
	for c := 0; c < 256; c++ {
		start := c == '_' || unicode.IsLetter(rune(c))
		part := start || (c >= '0' && c <= '9')
		if identStart[c] != start || identByte[c] != part {
			t.Errorf("byte %#02x: start %v, part %v; want %v, %v", c, identStart[c], identByte[c], start, part)
		}
	}
	if !identStart[0xe9] || identStart[0xd7] || identStart['7'] || !identByte['7'] {
		t.Error("0xe9 must start an identifier; 0xd7 and '7' must not; '7' may continue one")
	}
}
