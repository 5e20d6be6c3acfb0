package server

// The cvserve wire protocol: small JSON documents over HTTP. Every response
// body is a single JSON object; errors use ErrorResponse with the HTTP
// status carrying the class (400 invalid, 401 unauthenticated, 403 wrong
// tenant, 404 unknown job, 429 shed, 503 draining/closed).

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"cloudviews"
	"cloudviews/internal/data"
)

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	// ID is optional; empty means the system auto-assigns job-%06d.
	ID string `json:"id,omitempty"`
	// VC may only be set with the admin token (submitting on a tenant's
	// behalf); tenant tokens always submit to their own VC.
	VC       string `json:"vc,omitempty"`
	Pipeline string `json:"pipeline,omitempty"`
	User     string `json:"user,omitempty"`
	Runtime  string `json:"runtime,omitempty"`
	Script   string `json:"script"`
	// Params maps parameter names to scalar values: JSON strings, booleans,
	// and numbers (integral numbers become KindInt, others KindFloat).
	Params map[string]any `json:"params,omitempty"`
	// Async enqueues on the VC's FIFO worker and returns 202 with the job
	// ID for polling; otherwise the job runs inline and the response
	// carries the result.
	Async bool `json:"async,omitempty"`
	// OptOut disables CloudViews for this job.
	OptOut bool `json:"opt_out,omitempty"`
	// SubmitUnix is the simulated submission time in Unix seconds
	// (0 = the system clock).
	SubmitUnix int64 `json:"submit_unix,omitempty"`
}

// ResultSummary is the JSON rendering of a JobResult.
type ResultSummary struct {
	Rows        int        `json:"rows"`
	Columns     []string   `json:"columns,omitempty"`
	Data        [][]string `json:"data,omitempty"`
	ViewsBuilt  int        `json:"views_built"`
	ViewsReused int        `json:"views_reused"`
	Work        float64    `json:"work_container_sec"`
	InputBytes  int64      `json:"input_bytes"`
	DataRead    int64      `json:"data_read_bytes"`
}

// JobStatusResponse reports one job's lifecycle state: "queued" (accepted,
// not yet finished), "done", or "failed".
type JobStatusResponse struct {
	ID     string         `json:"id"`
	VC     string         `json:"vc"`
	Status string         `json:"status"`
	Result *ResultSummary `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Reason classifies shed requests: "rate" (token bucket) or "queue"
	// (admission control); empty otherwise.
	Reason string `json:"reason,omitempty"`
	// RetryAfterSec mirrors the Retry-After header on 429/503 responses.
	RetryAfterSec float64 `json:"retry_after_sec,omitempty"`
}

// AnalyzeRequest is the POST /admin/analyze body.
type AnalyzeRequest struct {
	WindowHours float64 `json:"window_hours"`
}

// AnalyzeResponse reports an analysis pass.
type AnalyzeResponse struct {
	TemplatesTagged int `json:"templates_tagged"`
}

// RunDayRequest is the POST /admin/runday body: one simulated day of jobs
// pushed through the full pipeline including the cluster schedule.
type RunDayRequest struct {
	Day  int             `json:"day"`
	Jobs []SubmitRequest `json:"jobs"`
}

// AdvanceRequest is the POST /admin/advance body (simulated clock).
type AdvanceRequest struct {
	Seconds float64 `json:"seconds"`
}

// SLOSampleRequest is the POST /admin/slo/sample body.
type SLOSampleRequest struct {
	Day int `json:"day"`
}

// SLOSampleResponse reports one watchdog evaluation over the server's
// request-metric series.
type SLOSampleResponse struct {
	Day     int      `json:"day"`
	Verdict string   `json:"verdict"`
	Alerts  []string `json:"alerts"`
}

// maxInlineRows caps the rendered rows in a ResultSummary; clients wanting
// more page through ?rows=N (itself capped here).
const maxInlineRows = 1000

// summarize renders a JobResult for the wire. rows bounds how many data rows
// are included (0 = none, metadata only).
func summarize(res *cloudviews.JobResult, rows int) *ResultSummary {
	if res == nil {
		return nil
	}
	s := &ResultSummary{
		ViewsBuilt:  res.ViewsBuilt,
		ViewsReused: res.ViewsReused,
		Work:        res.Work,
		InputBytes:  res.InputBytes,
		DataRead:    res.DataRead,
	}
	if res.Output == nil {
		return s
	}
	s.Rows, s.Columns = res.Output.NumRows(), res.Output.Schema.Names()
	// Each cell renders as Value.String() does, in three allocations for any
	// number of rows: a string cell is itself, any other a slice of one
	// builder sized for them all, and each row a window of one []string.
	const maxRendered = len("2006-01-02T15:04:05.999999999Z") // a TIME's; FLOAT 24, INT 20
	in, cells, rendered := res.Output.Rows[:min(rows, s.Rows)], 0, 0
	for _, row := range in {
		cells += len(row)
		for _, v := range row {
			if v.Kind != data.KindString {
				rendered += maxRendered
			}
		}
	}
	flat, b := make([]string, cells), new(strings.Builder)
	b.Grow(rendered)
	s.Data = make([][]string, len(in))
	for i, row := range in {
		for j, v := range row {
			if v.Kind == data.KindString {
				flat[j] = v.Str()
				continue
			}
			start := b.Len()
			b.Write(data.AppendValue(make([]byte, 0, maxRendered), v))
			flat[j] = b.String()[start:]
		}
		s.Data[i], flat = flat[:len(row):len(row)], flat[len(row):]
	}
	return s
}

// convertParams maps JSON scalars onto cloudviews values. JSON numbers are
// float64; integral values in the exact-int range become KindInt so scripts
// comparing against integer columns behave as written.
func convertParams(in map[string]any) (map[string]cloudviews.Value, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make(map[string]cloudviews.Value, len(in))
	for name, v := range in {
		switch x := v.(type) {
		case string:
			out[name] = cloudviews.String(x)
		case bool:
			out[name] = cloudviews.Bool(x)
		case float64:
			out[name] = numberValue(x)
		case nil:
			out[name] = cloudviews.Null()
		default:
			return nil, fmt.Errorf("param %q: unsupported type %T (want string, number, bool, or null)", name, v)
		}
	}
	return out, nil
}

// numberValue is a JSON number's value: an integral number in the exact-int
// range is KindInt, any other KindFloat.
func numberValue(x float64) cloudviews.Value {
	if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
		return cloudviews.Int(int64(x))
	}
	return cloudviews.Float(x)
}

// jsonContentType is shared; with a capacity of 1, a Header.Add copies it.
var jsonContentType = []string{"application/json"}

// An encoder is built once with the response indent and writes through to
// w, so it keeps its indent buffer between responses.
type encoder struct {
	enc  *json.Encoder
	w    http.ResponseWriter
	last int // bytes of the last document
}

func (e *encoder) Write(p []byte) (int, error) {
	e.last = len(p)
	return e.w.Write(p)
}

var encoders = sync.Pool{New: func() any {
	e := &encoder{}
	e.enc = json.NewEncoder(e)
	e.enc.SetIndent("", "  ")
	return e
}}

// writeJSON writes one JSON document with the given status.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	e := encoders.Get().(*encoder)
	e.w = w
	err := e.enc.Encode(body)
	e.w = nil
	// A failed write fails every later Encode, and an encoder keeps a buffer
	// as large as its last document: pooled again only up to 1 MiB.
	if err == nil && e.last <= 1<<20 {
		encoders.Put(e)
	}
}

// writeError writes an ErrorResponse; retryAfter > 0 also sets the
// Retry-After header (whole seconds, rounded up, minimum 1).
func writeError(w http.ResponseWriter, status int, reason string, retryAfterSec float64, format string, args ...any) {
	if retryAfterSec > 0 {
		secs := int64(math.Ceil(retryAfterSec))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, ErrorResponse{
		Error:         fmt.Sprintf(format, args...),
		Reason:        reason,
		RetryAfterSec: retryAfterSec,
	})
}
