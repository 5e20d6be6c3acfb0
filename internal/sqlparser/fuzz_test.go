package sqlparser

import (
	"bytes"
	"testing"
)

// FuzzParse feeds arbitrary byte strings through the full script parser. The
// contract under test: Parse never panics — malformed input must come back
// as an error, because in production the submission pipeline runs the parser
// on untrusted user scripts inside long-lived worker goroutines, where a
// panic would take down the whole worker.
func FuzzParse(f *testing.F) {
	// Seeds: the corpus parser_test.go exercises, valid and invalid.
	seeds := []string{
		`SELECT a, b FROM T WHERE x >= 1.5 AND name = 'asia''s'`,
		`SELECT CustomerId, AVG(Price*Quantity) AS avg_sales
		 FROM Sales WHERE MktSegment = 'Asia' GROUP BY CustomerId`,
		`cooked = SELECT * FROM RawLogs WHERE Ts >= @start;
		 agg = SELECT Region, COUNT(*) AS n FROM cooked GROUP BY Region;
		 OUTPUT agg TO "out/agg.ss";`,
		`PROCESS Logs USING "NormalizeStrings" DEPENDS "libA", "libB" NONDETERMINISTIC`,
		`SELECT a FROM X UNION ALL SELECT a FROM Y UNION ALL SELECT a FROM Z`,
		`SELECT a FROM T WHERE a + 1 * 2 = 3 AND b = 4 OR c = 5`,
		`SELECT a FROM T WHERE a BETWEEN 1 AND 5`,
		`SELECT a FROM T WHERE a IS NOT NULL`,
		`SELECT x FROM (SELECT a AS x FROM T WHERE a > 0) AS sub`,
		`SELECT a FROM T SAMPLE 10 PERCENT`,
		`SELECT a FROM T SAMPLE 200 PERCENT`,
		`SELECT a FROM T WHERE a > -5`,
		`SELECT DISTINCT Region FROM T`,
		`SELECT COUNT(*) AS n, LOWER(t.Name) AS ln FROM T AS t GROUP BY LOWER(t.Name)`,
		`SELECT a, b FROM T ORDER BY a DESC, b`,
		"",
		"SELECT",
		"SELECT a FROM",
		"SELECT a FROM T WHERE",
		"OUTPUT TO 'x'",
		"x = ",
		"SELECT a FROM T GROUP",
		"PROCESS T USING NormalizeStrings",
		"SELECT a b c FROM T",
		"SELECT a FROM T ORDER a",
		"-- comment only",
		"'unterminated",
		`"unterminated double`,
		"SELECT ((((((((((a))))))))))",
		"@@@@",
		"SELECT a FROM T WHERE a IN",
		"\x00\xff\xfe",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Both entry points must degrade to errors, never panic.
		if script, err := Parse(src); err == nil && script == nil {
			t.Error("Parse returned nil script with nil error")
		}
		if q, err := ParseQuery(src); err == nil && q == nil {
			t.Error("ParseQuery returned nil query with nil error")
		}
	})
}

// FuzzLexer checks the tokenizer's round-trip contract: any input that lexes
// successfully must normalize to a canonical form that re-lexes to the
// identical token stream (kinds and texts, positions aside). This is the
// soundness property the compiled-plan cache key relies on. The cache appends
// that form after a runtime prefix, so appending must leave the prefix alone
// and add exactly what normalizing into an empty buffer gives.
func FuzzLexer(f *testing.F) {
	seeds := []string{
		`SELECT a, b FROM T WHERE x >= 1.5 AND name = 'asia''s'`,
		`select lower(a) from t where b <> 3 and c == 4`,
		`OUTPUT agg TO "out/agg.ss";`,
		`SELECT @p1 + @p2 FROM T -- trailing comment`,
		"a = /* block\ncomment */ SELECT 1.. .5 FROM T",
		`'it''s' "dq""esc" ''`,
		"x-- not a comment? yes it is",
		"- - < = ! =",
		"@@",
		"\x00",
		"ident_with_unicode_\xc3\xa9",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		const prefix = "\x09scope-r1"
		appended, appendOK := AppendNormalized([]byte(prefix), src)
		if !bytes.HasPrefix(appended, []byte(prefix)) {
			t.Fatalf("AppendNormalized overwrote its prefix: %q", appended)
		}
		b, ok := AppendNormalized(nil, src)
		norm := string(b)
		toks, err := NewLexer(src).Lex()
		if err != nil {
			if ok {
				t.Fatal("AppendNormalized succeeded on input Lex rejects")
			}
			if appendOK || len(appended) != len(prefix) {
				t.Fatalf("AppendNormalized on input Lex rejects: ok=%v, appended %q", appendOK, appended[len(prefix):])
			}
			return
		}
		if !ok {
			t.Fatal("AppendNormalized failed on input Lex accepts")
		}
		if got := string(appended[len(prefix):]); !appendOK || got != norm {
			t.Fatalf("AppendNormalized after a prefix appended %q (ok=%v), into an empty buffer %q", got, appendOK, norm)
		}
		toks2, err := NewLexer(norm).Lex()
		if err != nil {
			t.Fatalf("normalized form does not re-lex: %v\nnorm: %q", err, norm)
		}
		if len(toks) != len(toks2) {
			t.Fatalf("token count changed: %d -> %d\nnorm: %q", len(toks), len(toks2), norm)
		}
		for i := range toks {
			if toks[i].Kind != toks2[i].Kind || toks[i].Text != toks2[i].Text {
				t.Fatalf("token %d changed: (%d,%q) -> (%d,%q)\nnorm: %q",
					i, toks[i].Kind, toks[i].Text, toks2[i].Kind, toks2[i].Text, norm)
			}
		}
		// Normalization must be idempotent.
		norm2, ok := AppendNormalized(nil, norm)
		if !ok || string(norm2) != norm {
			t.Fatalf("normalization not idempotent: %q -> %q", norm, norm2)
		}
	})
}
