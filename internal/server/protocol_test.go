package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"cloudviews"
	"cloudviews/internal/data"
)

// cellsScript outputs every row of the Cells dataset.
const cellsScript = `c = SELECT * FROM Cells;
OUTPUT c TO "out/c";`

// cellTable holds n rows of every kind, cycling through the renderings
// that differ most: NULLs, extreme ints, non-finite, negative-zero and
// exponent floats, instants with nanoseconds at both ends of int64, and
// strings JSON must escape or repair.
func cellTable(n int) *data.Table {
	ints := []int64{0, -1, 7, 99, 100, 123456789, math.MinInt64, math.MaxInt64}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e21, 0.1, 1e-7,
		-2.2250738585072014e-308, 12345.678900000001, 3}
	times := []time.Time{
		time.Date(2024, 2, 29, 23, 59, 59, 123456789, time.UTC),
		time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC),
		time.Unix(0, math.MaxInt64),
		time.Unix(0, math.MinInt64),
		time.Date(2024, 3, 1, 0, 0, 0, 100, time.FixedZone("x", 5*3600)),
	}
	strs := []string{`"quoted"`, `back\slash`, "\x00\x01\x1f\t\n\r", "\xff\xfe not UTF-8", "<b>&amp;</b>",
		"", "ünïcödé", "line\u2028sep", "plain"}
	tb := &data.Table{Schema: data.Schema{
		{Name: "I", Kind: data.KindInt},
		{Name: "F", Kind: data.KindFloat},
		{Name: "S", Kind: data.KindString},
		{Name: "B", Kind: data.KindBool},
		{Name: "T", Kind: data.KindTime},
	}}
	for r := 0; r < n; r++ {
		row := data.Row{
			data.Int(ints[r%len(ints)]),
			data.Float(floats[r%len(floats)]),
			data.String_(strs[r%len(strs)]),
			data.Bool(r%2 == 0),
			data.Time(times[r%len(times)]),
		}
		row[r%len(row)] = data.Null() // a NULL in every column, in turn
		tb.Append(row)
	}
	return tb
}

// referenceSummary is summarize as it rendered before rows shared one
// buffer: a string per cell, a slice per row.
func referenceSummary(res *cloudviews.JobResult, rows int) *ResultSummary {
	s := &ResultSummary{
		ViewsBuilt:  res.ViewsBuilt,
		ViewsReused: res.ViewsReused,
		Work:        res.Work,
		InputBytes:  res.InputBytes,
		DataRead:    res.DataRead,
		Rows:        res.Output.NumRows(),
		Columns:     res.Output.Schema.Names(),
	}
	for i := 0; i < min(rows, s.Rows); i++ {
		rendered := make([]string, len(res.Output.Rows[i]))
		for j, v := range res.Output.Rows[i] {
			rendered[j] = v.String()
		}
		s.Data = append(s.Data, rendered)
	}
	return s
}

// referenceJSON encodes v as writeJSON did before its encoders were pooled.
func referenceJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSummarizeMatchesString(t *testing.T) {
	res := &cloudviews.JobResult{Output: cellTable(90), ViewsBuilt: 1, Work: 0.25, InputBytes: 7}
	for _, rows := range []int{0, 1, 17, 90, 1000} {
		got, want := summarize(res, rows), referenceSummary(res, rows)
		if !slices.EqualFunc(got.Data, want.Data, slices.Equal[[]string]) {
			t.Fatalf("rows=%d: data\n%q\nwant\n%q", rows, got.Data, want.Data)
		}
		if g, w := referenceJSON(t, got), referenceJSON(t, want); !bytes.Equal(g, w) {
			t.Fatalf("rows=%d: summary encodes as\n%s\nwant\n%s", rows, g, w)
		}
	}
	if summarize(nil, 5) != nil {
		t.Fatal("summarize(nil) is not nil")
	}
	if got := summarize(&cloudviews.JobResult{Work: 1}, 5); got.Rows != 0 || got.Data != nil || got.Work != 1 {
		t.Fatalf("summary without output = %+v", got)
	}
}

var summarySink *ResultSummary

// TestSummarizeAllocationsDoNotGrowWithRows holds the rows route to a fixed
// number of allocations: the summary, its columns, the cells' buffer, the
// cells and the rows.
func TestSummarizeAllocationsDoNotGrowWithRows(t *testing.T) {
	small := &cloudviews.JobResult{Output: cellTable(10)}
	large := &cloudviews.JobResult{Output: cellTable(1000)}
	a10 := testing.AllocsPerRun(50, func() { summarySink = summarize(small, 10) })
	a1000 := testing.AllocsPerRun(50, func() { summarySink = summarize(large, 1000) })
	t.Logf("summarize allocations: %v for 10 rows, %v for 1,000 rows", a10, a1000)
	if a10 != a1000 || a1000 > 5 {
		t.Fatalf("summarize allocates %v times for 10 rows and %v for 1,000; want the same, at most 5", a10, a1000)
	}
}

// newCellsServer is a test server whose system also holds the Cells
// dataset of n rows.
func newCellsServer(t testing.TB, n int) *Server {
	t.Helper()
	srv, _ := newTestServer(t, func(cfg *Config) {
		cells := cellTable(n)
		if err := cfg.System.DefineDataset("Cells", cells.Schema); err != nil {
			t.Fatal(err)
		}
		if err := cfg.System.PublishDataset("Cells", cells); err != nil {
			t.Fatal(err)
		}
	})
	return srv
}

// serve runs one request through h and returns its recorder.
func serve(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer tok-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestResponsesMatchReferenceEncoder holds the submit, poll, rows, error and
// explain bodies byte for byte to a fresh encoder's, in an order that hands
// small documents the pooled encoders a large one grew.
func TestResponsesMatchReferenceEncoder(t *testing.T) {
	srv := newCellsServer(t, 1200)
	h := srv.Handler()
	result := func(id string) *cloudviews.JobResult {
		srv.mu.Lock()
		e := srv.jobs[id]
		srv.mu.Unlock()
		res, err, _ := srv.resolve(e)
		if res == nil {
			t.Fatalf("job %s: no result: %v", id, err)
		}
		return res
	}
	check := func(what string, rec *httptest.ResponseRecorder, status int, want any) {
		t.Helper()
		if rec.Code != status {
			t.Fatalf("%s: status %d, want %d: %s", what, rec.Code, status, rec.Body.Bytes())
		}
		if ct := rec.Header().Values("Content-Type"); !slices.Equal(ct, []string{"application/json"}) {
			t.Fatalf("%s: Content-Type %q", what, ct)
		}
		if w := referenceJSON(t, want); !bytes.Equal(rec.Body.Bytes(), w) {
			t.Fatalf("%s: body\n%s\nwant\n%s", what, rec.Body.Bytes(), w)
		}
	}
	submit := func(async bool) string {
		body, err := json.Marshal(SubmitRequest{Script: cellsScript, Async: async})
		if err != nil {
			t.Fatal(err)
		}
		rec := serve(h, "POST", "/v1/jobs", body)
		var st JobStatusResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
			t.Fatalf("submit: %v: %s", err, rec.Body.Bytes())
		}
		if async {
			check("async submit", rec, http.StatusAccepted, JobStatusResponse{ID: st.ID, VC: "vc1", Status: "queued"})
		} else {
			check("sync submit", rec, http.StatusOK, JobStatusResponse{
				ID: st.ID, VC: "vc1", Status: "done", Result: referenceSummary(result(st.ID), 0)})
		}
		return st.ID
	}
	poll := func(id, query string, rows int) {
		t.Helper()
		rec := serve(h, "GET", "/v1/jobs/"+id+query, nil)
		check("poll "+query, rec, http.StatusOK, JobStatusResponse{
			ID: id, VC: "vc1", Status: "done", Result: referenceSummary(result(id), rows)})
	}

	id := submit(false)
	poll(id, "?rows=1000", 1000)
	poll(id, "?rows=5000", 1000)
	poll(id, "", 0)
	poll(id, "?rows=3", 3)
	async := submit(true)
	poll(async, "?wait=1&rows=40", 40)
	check("explain", serve(h, "GET", "/v1/jobs/"+id+"/explain", nil), http.StatusOK,
		ExplainResponse{ID: id, VC: "vc1", Decisions: result(id).Explain()})
	check("unknown job", serve(h, "GET", "/v1/jobs/nope", nil), http.StatusNotFound,
		ErrorResponse{Error: `unknown job "nope"`})
	check("bad rows", serve(h, "GET", "/v1/jobs/"+id+"?rows=-1", nil), http.StatusBadRequest,
		ErrorResponse{Error: `invalid rows="-1"`})
	// A failed script's message is the engine's: the reference encodes what
	// the body decodes to.
	rec := serve(h, "POST", "/v1/jobs", []byte(`{"script": "garbage <&>"}`))
	var failed ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &failed); err != nil || failed.Error == "" {
		t.Fatalf("bad script: %v: %s", err, rec.Body.Bytes())
	}
	check("bad script", rec, http.StatusUnprocessableEntity, failed)
}

// BenchmarkServeRequest is a warm sync submit and a ?rows=1000 fetch of its
// result through the handler: a job of 1,200 rows of every kind.
func BenchmarkServeRequest(b *testing.B) {
	srv := newCellsServer(b, 1200)
	h := srv.Handler()
	body, err := json.Marshal(SubmitRequest{Script: cellsScript})
	if err != nil {
		b.Fatal(err)
	}
	idOf := func(rec *httptest.ResponseRecorder) string {
		_, rest, _ := bytes.Cut(rec.Body.Bytes(), []byte(`"id": "`))
		id, _, ok := bytes.Cut(rest, []byte(`"`))
		if rec.Code != http.StatusOK || !ok {
			b.Fatalf("submit: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		return string(id)
	}
	idOf(serve(h, "POST", "/v1/jobs", body))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := idOf(serve(h, "POST", "/v1/jobs", body))
		if rec := serve(h, "GET", "/v1/jobs/"+id+"?rows=1000", nil); rec.Code != http.StatusOK {
			b.Fatalf("fetch: status %d", rec.Code)
		}
	}
}

// failingWriter is a response whose body writes fail, as a disconnected
// client's do.
type failingWriter struct{ httptest.ResponseRecorder }

func (f *failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestFailedWriteLeavesNoBrokenEncoder: a json.Encoder whose write failed
// fails every later Encode, so the response after a failed one is still
// written in full.
func TestFailedWriteLeavesNoBrokenEncoder(t *testing.T) {
	body := ErrorResponse{Error: "x"}
	for i := 0; i < 3; i++ {
		writeJSON(&failingWriter{*httptest.NewRecorder()}, http.StatusOK, body)
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, body)
		if w := referenceJSON(t, body); !bytes.Equal(rec.Body.Bytes(), w) {
			t.Fatalf("after a failed write the body is %q, want %q", rec.Body.Bytes(), w)
		}
	}
}
