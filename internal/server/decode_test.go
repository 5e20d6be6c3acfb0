package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/workload"
)

// decodeCases are submission bodies and whether each has the flat shape
// fastSubmit decodes; every other one is encoding/json's to decode.
var decodeCases = []struct {
	name, body string
	fast       bool
}{
	{"every field", `{"id":"j1","vc":"vc1","pipeline":"p","user":"u","runtime":"r","script":"a = SELECT 1;\nOUTPUT a TO \"o\";",` +
		`"params":{"s":"x","b":true,"f":1.5,"i":42,"n":null,"no":false},"async":true,"opt_out":true,"submit_unix":1700000000}`, true},
	{"escapes", `{"script":"a\n\t\r\b\f \u003c\u003e\u0026 <>& \/ \\ \" \u00e9\u20AC\u0000 end","params":{"cut":"\u003cx\u003e"}}`, true},
	{"raw UTF-8", `{"script":"ünïcödé €😀  "}`, true},
	{"surrogate pair", `{"script":"a \ud83d\ude00 b"}`, false},
	{"lone surrogate", `{"script":"a \ud800 b"}`, false},
	{"surrogate in a param", `{"script":"x","params":{"p":"\udfff"}}`, false},
	{"invalid UTF-8", "{\"script\":\"a \xff\xfe b\"}", false},
	{"invalid UTF-8 in a param name", "{\"script\":\"x\",\"params\":{\"\xc3\":1}}", false},
	{"encoded surrogate", "{\"script\":\"\xed\xa0\x80\"}", false},
	{"Script", `{"Script":"x"}`, false},
	{"SCRIPT and Id", `{"SCRIPT":"x","Id":"j"}`, false},
	{"folded s", `{"ſcript":"x"}`, false},
	{"escaped key", `{"scr\u0069pt":"x"}`, false},
	{"escaped param name", `{"script":"x","params":{"\u0063ut":1}}`, true},
	{"duplicate script", `{"script":"a","script":"b"}`, false},
	{"duplicate params", `{"script":"x","params":{"a":1},"params":{"b":2}}`, false},
	{"duplicate param names", `{"script":"x","params":{"a":1,"a":"two"}}`, true},
	{"unknown array and object", `{"script":"x","extra":[1,{"a":[]}],"more":{"b":null}}`, false},
	{"null id", `{"id":null,"script":"x"}`, false},
	{"null script", `{"script":null}`, false},
	{"null async", `{"script":"x","async":null}`, false},
	{"null submit_unix", `{"script":"x","submit_unix":null}`, false},
	{"params {}", `{"script":"x","params":{}}`, true},
	{"params { }", `{"script":"x","params":{ } }`, true},
	{"params null", `{"script":"x","params":null}`, false},
	{"params nested object", `{"script":"x","params":{"a":{"b":1}}}`, false},
	{"params nested array", `{"script":"x","params":{"a":[1]}}`, false},
	{"params not an object", `{"script":"x","params":[1]}`, false},
	{"2^53+1", `{"script":"x","params":{"a":9007199254740993}}`, true},
	{"2^53", `{"script":"x","params":{"a":9007199254740992}}`, true},
	{"2^53-1", `{"script":"x","params":{"a":9007199254740991}}`, true},
	{"-2^53+1", `{"script":"x","params":{"a":-9007199254740991}}`, true},
	{"-2^53", `{"script":"x","params":{"a":-9007199254740992}}`, true},
	{"-2^53-1", `{"script":"x","params":{"a":-9007199254740993}}`, true},
	{"1e400", `{"script":"x","params":{"a":1e400}}`, false},
	{"-1e400", `{"script":"x","params":{"a":-1e400}}`, false},
	{"1e-400", `{"script":"x","params":{"a":1e-400}}`, true},
	{"-0", `{"script":"x","params":{"a":-0,"b":-0.0,"c":0e5,"d":1E+2,"e":-1.25e-3}}`, true},
	{"unix ns", `{"script":"x","params":{"cutoff":1700000000000000000}}`, true},
	{"submit_unix 1.5", `{"script":"x","submit_unix":1.5}`, false},
	{"submit_unix 1e3", `{"script":"x","submit_unix":1e3}`, false},
	{"submit_unix negative", `{"script":"x","submit_unix":-5}`, true},
	{"submit_unix -0", `{"script":"x","submit_unix":-0}`, true},
	{"submit_unix 19 digits", `{"script":"x","submit_unix":1234567890123456789}`, false},
	{"submit_unix overflow", `{"script":"x","submit_unix":12345678901234567890}`, false},
	{"submit_unix string", `{"script":"x","submit_unix":"5"}`, false},
	{"id a number", `{"id":5,"script":"x"}`, false},
	{"async a string", `{"script":"x","async":"true"}`, false},
	{"opt_out a number", `{"script":"x","opt_out":1}`, false},
	{"script a bool", `{"script":true}`, false},
	{"trailing data", `{"script":"x"} {"script":"y"}`, false},
	{"trailing garbage", `{"script":"x"}garbage`, false},
	{"trailing whitespace", "{\"script\":\"x\"}\n \t\r\n", true},
	{"white space everywhere", " \n{ \"script\" : \"x\" , \"params\" : { \"a\" : 1 , \"b\" : \"c\" } , \"async\" : false }\n", true},
	{"empty object", `{}`, true},
	{"empty body", ``, false},
	{"white space only", " \n ", false},
	{"truncated", `{"script":"x"`, false},
	{"truncated string", `{"script":"x`, false},
	{"truncated params", `{"script":"x","params":{"a":`, false},
	{"raw control character", "{\"script\":\"a\tb\"}", false},
	{"array", `[{"script":"x"}]`, false},
	{"string", `"x"`, false},
	{"null", `null`, false},
	{"number", `42`, false},
}

// rendered is everything a decode produces, floats' signs included.
func rendered(sub submission, err error) string {
	return fmt.Sprintf("%#v async=%v paramsErr=%v err=%v", sub.job, sub.async, sub.paramsErr, err)
}

// TestDecodeSubmitMatchesReference: every body decodes to the job, params,
// and errors encoding/json and convertParams make of it, and the bodies of
// the flat shape take the one-pass decoder.
func TestDecodeSubmitMatchesReference(t *testing.T) {
	var scratch []byte
	for _, c := range decodeCases {
		body := []byte(c.body)
		want := rendered(referenceSubmit(body))
		if got := rendered(decodeSubmit(body, &scratch)); got != want {
			t.Errorf("%s: %s\n got  %s\n want %s", c.name, c.body, got, want)
		}
		sub, fast := submission{}, json.Valid(body)
		if fast {
			sub, fast = fastSubmit(body, &scratch)
		}
		if fast != c.fast {
			t.Errorf("%s: %s: one-pass decode = %v, want %v", c.name, c.body, fast, c.fast)
		} else if fast {
			if got := rendered(sub, nil); got != want {
				t.Errorf("%s: one-pass decode of %s\n got  %s\n want %s", c.name, c.body, got, want)
			}
		}
	}
}

// generatorBodies are bodies as clients send the workload generator's first
// day: times as Unix nanoseconds, every other parameter as itself.
func generatorBodies(t testing.TB) [][]byte {
	t.Helper()
	p := workload.DefaultProfile("decode")
	p.RowsPerRawDay = 40
	gen := workload.NewGenerator(catalog.New(), p)
	if err := gen.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, in := range gen.JobsForDay(1) {
		params := make(map[string]any, len(in.Params))
		for k, v := range in.Params {
			switch v.Kind {
			case data.KindTime, data.KindInt:
				params[k] = v.I
			case data.KindFloat:
				params[k] = v.F
			case data.KindString:
				params[k] = v.Str()
			case data.KindBool:
				params[k] = v.B
			}
		}
		body, err := json.Marshal(SubmitRequest{
			ID: in.ID, Pipeline: in.Pipeline, User: in.User, Runtime: in.Runtime,
			Script: in.Script, Params: params, SubmitUnix: in.Submit.Unix(),
		})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// FuzzDecodeSubmit: whatever the body, the decode equals encoding/json's.
func FuzzDecodeSubmit(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	for _, body := range generatorBodies(f) {
		f.Add(body)
	}
	var scratch []byte
	f.Fuzz(func(t *testing.T, body []byte) {
		want := rendered(referenceSubmit(body))
		if got := rendered(decodeSubmit(body, &scratch)); got != want {
			t.Errorf("%q\n got  %s\n want %s", body, got, want)
		}
	})
}

// TestDecodeSubmitAllocations: a generator job's body decodes with one
// allocation per string the job keeps, the parameter map's two (its header
// and its first group), and one per parameter name.
func TestDecodeSubmitAllocations(t *testing.T) {
	bodies := generatorBodies(t)
	body := bodies[0]
	for _, b := range bodies {
		if len(b) > len(body) {
			body = b // the longest, escapes and parameters included
		}
	}
	var scratch []byte
	sub, err := decodeSubmit(body, &scratch)
	if err != nil || !json.Valid(body) {
		t.Fatalf("decode: %v", err)
	}
	if _, fast := fastSubmit(body, &scratch); !fast {
		t.Fatalf("a generator body took encoding/json: %s", body)
	}
	if !bytes.Contains(body, []byte(`\n`)) || !bytes.Contains(body, []byte(`\u00`)) {
		t.Fatalf("the body prices no unescaping: %s", body)
	}
	want := 0
	for _, s := range []string{sub.job.ID, sub.job.VC, sub.job.Pipeline, sub.job.User, sub.job.Runtime, sub.job.Script} {
		if s != "" {
			want++
		}
	}
	if len(sub.job.Params) > 0 {
		want += 2 + len(sub.job.Params)
		for _, v := range sub.job.Params {
			if v.Kind == data.KindString && v.Str() != "" {
				want++
			}
		}
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := decodeSubmit(body, &scratch); err != nil {
			t.Fatal(err)
		}
	})
	ref := testing.AllocsPerRun(100, func() {
		if _, err := referenceSubmit(body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d-byte body with %d parameters: %.0f allocations, encoding/json and convertParams %.0f",
		len(body), len(sub.job.Params), got, ref)
	if got != float64(want) {
		t.Errorf("decode costs %.0f allocations, want %d", got, want)
	}
}
