package server

// How a POST /v1/jobs body becomes a job: read once into a pooled buffer,
// then decoded in one pass when it has the flat shape clients send, and by
// encoding/json otherwise (DESIGN.md, "How requests are decoded").

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"cloudviews"
)

// maxBodyBytes bounds a submission's body; a pooled buffer is kept only up
// to the same size.
const maxBodyBytes = 1 << 20

// A submission is a decoded POST /v1/jobs body.
type submission struct {
	job   cloudviews.Job // VC as the body names it
	async bool
	// paramsErr is convertParams' refusal, answered after the checks that
	// come before it in handleSubmit.
	paramsErr error
}

// submitBuf holds a body and the scratch its escaped strings unescape into.
type submitBuf struct{ body, scratch []byte }

var submitBufs = sync.Pool{New: func() any { return new(submitBuf) }}

// readSubmit reads the body to its end, closes it and decodes it. A non-nil
// error is the message to answer with status.
func readSubmit(w http.ResponseWriter, r *http.Request) (sub submission, status int, err error) {
	buf := submitBufs.Get().(*submitBuf)
	defer func() {
		if cap(buf.body) <= maxBodyBytes && cap(buf.scratch) <= maxBodyBytes {
			submitBufs.Put(buf)
		}
	}()
	buf.body, err = readBody(buf.body[:0], http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	_ = r.Body.Close() // read to EOF already, or failed: nothing to report
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return sub, http.StatusRequestEntityTooLarge, fmt.Errorf("request body larger than %d bytes", maxBodyBytes)
		}
		return sub, http.StatusBadRequest, fmt.Errorf("invalid JSON body: %v", err)
	}
	if sub, err = decodeSubmit(buf.body, &buf.scratch); err != nil {
		return sub, http.StatusBadRequest, fmt.Errorf("invalid JSON body: %v", err)
	}
	return sub, 0, nil
}

// readBody appends r's bytes to buf up to EOF, growing it once to size (the
// declared length, or -1) when that is known.
func readBody(buf []byte, r io.Reader, size int64) ([]byte, error) {
	if size >= 0 && size < maxBodyBytes && int(size) >= cap(buf) {
		buf = make([]byte, 0, size+1) // +1: the read that sees EOF needs room
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeSubmit decodes a body as referenceSubmit does. A body that is valid
// JSON with the flat shape clients send is decoded in one pass; any other
// goes through referenceSubmit, so the bodies accepted and the errors
// returned are encoding/json's. scratch is where escaped strings unescape.
func decodeSubmit(body []byte, scratch *[]byte) (submission, error) {
	if json.Valid(body) {
		if sub, ok := fastSubmit(body, scratch); ok {
			return sub, nil
		}
	}
	return referenceSubmit(body)
}

// referenceSubmit decodes a body with encoding/json and convertParams.
func referenceSubmit(body []byte) (submission, error) {
	var req SubmitRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return submission{}, err
	}
	job, err := req.job()
	return submission{job: job, async: req.Async, paramsErr: err}, nil
}

// job converts a decoded request. A convertParams refusal is returned beside
// the job, whose Params it leaves nil.
func (req *SubmitRequest) job() (cloudviews.Job, error) {
	params, err := convertParams(req.Params)
	job := cloudviews.Job{
		ID: req.ID, VC: req.VC, Pipeline: req.Pipeline, User: req.User,
		Runtime: req.Runtime, Script: req.Script, Params: params, OptOut: req.OptOut,
	}
	setSubmit(&job, req.SubmitUnix)
	return job, err
}

// setSubmit applies SubmitRequest.SubmitUnix's rule: 0 or less leaves the
// system clock to date the job.
func setSubmit(job *cloudviews.Job, unix int64) {
	if unix > 0 {
		job.Submit = time.Unix(unix, 0).UTC()
	}
}

// The fields of SubmitRequest, as bits of fastSubmit's seen-set.
const (
	fieldID = 1 << iota
	fieldVC
	fieldPipeline
	fieldUser
	fieldRuntime
	fieldScript
	fieldParams
	fieldAsync
	fieldOptOut
	fieldSubmitUnix
)

// fieldOf maps a key, as its bytes stand in the body, to its field bit.
func fieldOf(key []byte) int {
	switch string(key) {
	case "id":
		return fieldID
	case "vc":
		return fieldVC
	case "pipeline":
		return fieldPipeline
	case "user":
		return fieldUser
	case "runtime":
		return fieldRuntime
	case "script":
		return fieldScript
	case "params":
		return fieldParams
	case "async":
		return fieldAsync
	case "opt_out":
		return fieldOptOut
	case "submit_unix":
		return fieldSubmitUnix
	}
	return 0
}

// fastSubmit decodes a body json.Valid accepts when it is one object whose
// keys are SubmitRequest's names exactly, each at most once, holding a value
// of the field's type: a string without invalid UTF-8 or escaped surrogates,
// a bool, an integer of at most 18 digits, or for params an object of
// strings, bools, nulls and numbers. It reports false for any other body.
func fastSubmit(body []byte, scratch *[]byte) (sub submission, ok bool) {
	s := scanner{b: body}
	if s.next() != '{' {
		return sub, false
	}
	if s.peek() == '}' {
		return sub, true
	}
	seen, unix := 0, int64(0)
	for {
		s.next() // the key's opening quote
		field := fieldOf(s.raw())
		if field == 0 || seen&field != 0 {
			return sub, false
		}
		seen |= field
		s.next() // ':'
		switch field {
		case fieldAsync:
			sub.async, ok = s.boolean()
		case fieldOptOut:
			sub.job.OptOut, ok = s.boolean()
		case fieldSubmitUnix:
			unix, ok = parseInt(s.number())
		case fieldParams:
			sub.job.Params, ok = s.params(scratch)
		default:
			var str string
			if str, ok = s.str(scratch); ok {
				switch field {
				case fieldID:
					sub.job.ID = str
				case fieldVC:
					sub.job.VC = str
				case fieldPipeline:
					sub.job.Pipeline = str
				case fieldUser:
					sub.job.User = str
				case fieldRuntime:
					sub.job.Runtime = str
				case fieldScript:
					sub.job.Script = str
				}
			}
		}
		if !ok {
			return sub, false
		}
		if s.next() == '}' {
			setSubmit(&sub.job, unix)
			return sub, true
		}
	}
}

// A scanner walks a document json.Valid accepts, so it checks only which
// kind of value comes next, never the syntax.
type scanner struct {
	b []byte
	i int
}

// next skips white space and consumes the byte after it.
func (s *scanner) next() byte {
	c := s.peek()
	s.i++
	return c
}

// peek skips white space and returns the next byte.
func (s *scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// raw consumes the rest of a string whose opening quote is consumed and
// returns its bytes between the quotes, escapes as written.
func (s *scanner) raw() []byte {
	start := s.i
	for s.b[s.i] != '"' {
		if s.b[s.i] == '\\' {
			s.i++
		}
		s.i++
	}
	s.i++
	return s.b[start : s.i-1]
}

// str consumes a string value as encoding/json decodes it. It reports false
// for anything else, and for a string holding invalid UTF-8 or an escaped
// surrogate, which encoding/json rewrites.
func (s *scanner) str(scratch *[]byte) (string, bool) {
	if s.next() != '"' {
		return "", false
	}
	raw := s.raw()
	if !utf8.Valid(raw) {
		return "", false
	}
	i := bytes.IndexByte(raw, '\\')
	if i < 0 {
		return string(raw), true
	}
	if cap(*scratch) < len(raw) {
		*scratch = make([]byte, 0, len(raw)) // unescaping never lengthens
	}
	out := append((*scratch)[:0], raw[:i]...)
	for raw = raw[i:]; len(raw) > 0; {
		c := raw[1]
		raw = raw[2:]
		switch c {
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			u, _ := strconv.ParseUint(string(raw[:4]), 16, 16) // four hex digits, as json.Valid checked
			r := rune(u)
			if utf16.IsSurrogate(r) {
				return "", false
			}
			out = utf8.AppendRune(out, r)
			raw = raw[4:]
		default: // '"', '\\' and '/' stand for themselves
			out = append(out, c)
		}
		i = bytes.IndexByte(raw, '\\')
		if i < 0 {
			i = len(raw)
		}
		out = append(out, raw[:i]...)
		raw = raw[i:]
	}
	*scratch = out
	return string(out), true
}

// boolean consumes true or false, reporting false for any other value.
func (s *scanner) boolean() (bool, bool) {
	switch s.next() {
	case 't':
		s.i += len("rue")
		return true, true
	case 'f':
		s.i += len("alse")
		return false, true
	}
	return false, false
}

// number consumes a number and returns its bytes, or nil for any other
// value.
func (s *scanner) number() []byte {
	if c := s.peek(); c != '-' && (c < '0' || c > '9') {
		return nil
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case '-', '+', '.', 'e', 'E', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
			continue
		}
		break
	}
	return s.b[start:s.i]
}

// parseInt parses an optionally signed run of at most 18 digits, which
// cannot overflow an int64; it reports false for anything else.
func parseInt(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	n := int64(0)
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// params consumes an object of scalars into values by convertParams' rule.
// An empty object is nil, as convertParams makes it; any other value, or a
// member that is an array or object, reports false.
func (s *scanner) params(scratch *[]byte) (map[string]cloudviews.Value, bool) {
	if s.next() != '{' {
		return nil, false
	}
	if s.peek() == '}' {
		s.i++
		return nil, true
	}
	var out map[string]cloudviews.Value
	for {
		name, ok := s.str(scratch)
		if !ok {
			return nil, false
		}
		s.next() // ':'
		var v cloudviews.Value
		switch s.peek() {
		case '"':
			var str string
			str, ok = s.str(scratch)
			v = cloudviews.String(str)
		case 't', 'f':
			var b bool
			b, ok = s.boolean()
			v = cloudviews.Bool(b)
		case 'n':
			s.i += len("null")
		default:
			var f float64
			f, ok = parseFloat(s.number())
			v = numberValue(f)
		}
		if !ok {
			return nil, false
		}
		if out == nil {
			out = make(map[string]cloudviews.Value)
		}
		out[name] = v
		if s.next() == '}' {
			return out, true
		}
	}
}

// parseFloat parses a JSON number as encoding/json does into an interface,
// reporting false for nil (not a number) and where it would refuse the
// number (out of range).
func parseFloat(b []byte) (float64, bool) {
	if b == nil {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(b), 64)
	return f, err == nil
}
