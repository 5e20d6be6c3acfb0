package sqlparser

import (
	"testing"
)

// TestRenderRoundTrip: rendering then re-parsing must yield a script that
// renders identically (fixpoint after one round).
func TestRenderRoundTrip(t *testing.T) {
	scripts := []string{
		`cooked = SELECT * FROM RawLogs WHERE Ts >= @start;
		 agg = SELECT Region, COUNT(*) AS n FROM cooked GROUP BY Region HAVING n > 5;
		 OUTPUT agg TO "out/agg.ss";`,
		`p = SELECT a.Id AS id, b.Value AS v FROM Lhs AS a JOIN Rhs AS b ON a.Id = b.Id WHERE a.Id > 10 ORDER BY v DESC, id;
		 OUTPUT p TO "x";`,
		`u = SELECT x FROM A UNION ALL SELECT x FROM B;
		 q = PROCESS u USING "NormalizeStrings" DEPENDS "libA", "libB";
		 OUTPUT q TO "y";`,
		`s = SELECT DISTINCT Region FROM T SAMPLE 25 PERCENT;
		 OUTPUT s TO "z";`,
		`n = SELECT a FROM T WHERE a BETWEEN 1 AND 5 AND b IS NOT NULL AND name LIKE 'x%';
		 OUTPUT n TO "w";`,
	}
	for _, src := range scripts {
		ast1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse original: %v\n%s", err, src)
		}
		text1 := Render(ast1)
		ast2, err := Parse(text1)
		if err != nil {
			t.Fatalf("re-parse rendered: %v\n%s", err, text1)
		}
		text2 := Render(ast2)
		if text1 != text2 {
			t.Errorf("render not a fixpoint:\n%s\nvs\n%s", text1, text2)
		}
	}
}

// TestRenderPinsText holds Render's bytes, and RenderQuery's for each
// assignment, on scripts that reach every statement, query and source kind.
// The texts were rendered before the node kinds rendered themselves.
func TestRenderPinsText(t *testing.T) {
	for src, want := range map[string]string{
		`u = SELECT x FROM A UNION ALL SELECT x FROM B;
		 q = PROCESS u USING "NormalizeStrings" DEPENDS "libA", "libB";
		 OUTPUT q TO "y";`: "u = SELECT x FROM A UNION ALL SELECT x FROM B;\nq = PROCESS u USING \"NormalizeStrings\" DEPENDS \"libA\", \"libB\";\nOUTPUT (SELECT * FROM q) TO \"y\";\n",
		`j = SELECT k.a, COUNT(*) AS c FROM (SELECT a FROM T WHERE name = 'o''brien') AS k JOIN U ON k.a = U.a AND U.b > 1.5 GROUP BY k.a, U.b;
		 r = PROCESS (SELECT * FROM j) AS src USING "Udo" DEPENDS "lib" NONDETERMINISTIC;
		 OUTPUT (SELECT -a AS m, NOT (a = 1) AS z FROM j) TO "t";`: "j = SELECT k.a, COUNT(*) AS c FROM (SELECT a FROM T WHERE (name = 'o''brien')) AS k JOIN U ON ((k.a = U.a) AND (U.b > 1.5)) GROUP BY k.a, U.b;\nr = PROCESS (SELECT * FROM j) AS src USING \"Udo\" DEPENDS \"lib\" NONDETERMINISTIC;\nOUTPUT (SELECT (-a) AS m, (NOT (a = 1)) AS z FROM j) TO \"t\";\n",
	} {
		ast, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := Render(ast); got != want {
			t.Errorf("Render:\n%q\nwant\n%q", got, want)
		}
		for _, st := range ast.Stmts {
			if a, ok := st.(*AssignStmt); ok && !contains(want, a.Name+" = "+RenderQuery(a.Query)+";\n") {
				t.Errorf("RenderQuery(%s) = %q", a.Name, RenderQuery(a.Query))
			}
		}
	}
}

func TestRenderPreservesParams(t *testing.T) {
	ast, err := Parse(`r = SELECT a FROM T WHERE Ts >= @cutoff; OUTPUT r TO "o";`)
	if err != nil {
		t.Fatal(err)
	}
	text := Render(ast)
	if want := "@cutoff"; !contains(text, want) {
		t.Errorf("rendered script lost the parameter:\n%s", text)
	}
}

func TestRenderEscapesStringLiterals(t *testing.T) {
	ast, err := Parse(`r = SELECT a FROM T WHERE name = 'o''brien'; OUTPUT r TO "o";`)
	if err != nil {
		t.Fatal(err)
	}
	text := Render(ast)
	ast2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	// The literal survives the round trip.
	sel := ast2.Stmts[0].(*AssignStmt).Query.(*SelectQuery)
	lit := sel.Where.(*BinaryExpr).Right.(*Literal)
	if lit.Str != "o'brien" {
		t.Errorf("literal = %q", lit.Str)
	}
}

func contains(haystack, needle string) bool {
	return len(haystack) >= len(needle) && (func() bool {
		for i := 0; i+len(needle) <= len(haystack); i++ {
			if haystack[i:i+len(needle)] == needle {
				return true
			}
		}
		return false
	})()
}
