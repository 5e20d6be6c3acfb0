package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Client is the minimal cvserve Go client: submit, poll, and a retry loop
// that cooperates with the server's load shedding. On a 429 it honors the
// Retry-After header, distinguishing the two shed reasons the server
// advertises:
//
//   - reason=rate: the token bucket computed the exact wait until the next
//     token; the client sleeps precisely that long (plus nothing — retrying
//     earlier cannot succeed, later wastes the token).
//   - reason=queue: the VC's in-flight queue is full; Retry-After is only a
//     hint, so the client layers capped exponential backoff on top — herds
//     of queue-shed clients must not relaunch in lockstep.
//
// Retries are bounded by MaxAttempts; a client that exhausts them returns
// *ShedError so callers can tell "the server said no N times" from transport
// failures. Tests replace the sleep, so they script the whole dance against a
// fake server without real waiting.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080" (required).
	BaseURL string
	// Token is the bearer token presented on every request (required).
	Token string
	// HTTP is the transport (nil = http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts bounds submission tries including the first (0 = 4).
	MaxAttempts int

	// sleep is the wait (nil = time.Sleep); this package's tests record it.
	sleep func(time.Duration)

	// mu guards the shed tallies below.
	mu        sync.Mutex
	shedRate  int
	shedQueue int
}

// ShedError reports a submission the server shed on every allowed attempt.
type ShedError struct {
	Reason   string // "rate" or "queue" (from the final 429)
	Attempts int
	Wait     time.Duration // the final advertised Retry-After
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("submission shed %d times (last reason=%s, retry-after %v)",
		e.Attempts, e.Reason, e.Wait)
}

// APIError reports any other non-2xx response.
type APIError struct {
	Status int
	Msg    string
}

func (e *APIError) Error() string { return fmt.Sprintf("cvserve: %d: %s", e.Status, e.Msg) }

func (c *Client) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 4
	}
	return c.MaxAttempts
}

const (
	// baseBackoff seeds the exponential queue-shed backoff.
	baseBackoff = 100 * time.Millisecond
	// maxBackoff caps any single sleep, Retry-After included.
	maxBackoff = 5 * time.Second
)

func (c *Client) pause(d time.Duration) {
	if c.sleep != nil {
		c.sleep(d)
		return
	}
	time.Sleep(d)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// ShedCounts returns how many 429s the client has absorbed, by reason.
func (c *Client) ShedCounts() (rate, queue int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shedRate, c.shedQueue
}

// do runs one request and returns the status, headers, and raw body; the
// caller decodes per status (success and error bodies have different shapes).
func (c *Client) do(method, path string, body any) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, nil, nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.Token)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, resp.Header, nil, err
	}
	return resp.StatusCode, resp.Header, raw, nil
}

// retryWait computes the sleep before retrying a shed attempt (1-based).
// Rate sheds trust the server's exact wait; queue sheds treat it as a floor
// under capped exponential backoff.
func retryWait(reason string, advertised time.Duration, attempt int) time.Duration {
	wait := advertised
	if reason != "rate" {
		wait = max(wait, baseBackoff<<(attempt-1))
	}
	if wait > maxBackoff {
		wait = maxBackoff
	}
	if wait <= 0 {
		wait = baseBackoff
	}
	return wait
}

// retryAfter extracts the advertised wait from a 429/503 response, preferring
// the header (which the server always sets) over the body mirror.
func retryAfter(h http.Header, body *ErrorResponse) time.Duration {
	if v := h.Get("Retry-After"); v != "" {
		if sec, err := strconv.ParseFloat(v, 64); err == nil && sec > 0 {
			return time.Duration(sec * float64(time.Second))
		}
	}
	if body != nil && body.RetryAfterSec > 0 {
		return time.Duration(body.RetryAfterSec * float64(time.Second))
	}
	return 0
}

// Submit posts one job, absorbing up to MaxAttempts-1 load sheds. On
// acceptance it returns the server's status document (async submissions come
// back "queued"; sync come back "done").
func (c *Client) Submit(req SubmitRequest) (*JobStatusResponse, error) {
	var last *ShedError
	for attempt := 1; attempt <= c.maxAttempts(); attempt++ {
		code, hdr, raw, err := c.do("POST", "/v1/jobs", req)
		if err != nil {
			return nil, err
		}
		switch code {
		case http.StatusOK, http.StatusAccepted:
			var st JobStatusResponse
			if err := json.Unmarshal(raw, &st); err != nil {
				return nil, fmt.Errorf("decoding submit response: %w", err)
			}
			return &st, nil
		case http.StatusTooManyRequests:
			var shed ErrorResponse
			_ = json.Unmarshal(raw, &shed)
			reason := shed.Reason
			if reason == "" {
				reason = "queue"
			}
			wait := retryAfter(hdr, &shed)
			c.mu.Lock()
			if reason == "rate" {
				c.shedRate++
			} else {
				c.shedQueue++
			}
			c.mu.Unlock()
			last = &ShedError{Reason: reason, Attempts: attempt, Wait: wait}
			if attempt == c.maxAttempts() {
				return nil, last
			}
			c.pause(retryWait(reason, wait, attempt))
		default:
			var apiErr ErrorResponse
			_ = json.Unmarshal(raw, &apiErr)
			return nil, &APIError{Status: code, Msg: apiErr.Error}
		}
	}
	return nil, last
}

// Wait polls one job until it leaves "queued", using the server's bounded
// long-poll. It returns the terminal status document; a "failed" job is not
// an error at this layer (the document carries the message).
func (c *Client) Wait(jobID string) (*JobStatusResponse, error) {
	for {
		code, _, raw, err := c.do("GET", "/v1/jobs/"+jobID+"?wait=1", nil)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			var apiErr ErrorResponse
			_ = json.Unmarshal(raw, &apiErr)
			return nil, &APIError{Status: code, Msg: apiErr.Error}
		}
		var st JobStatusResponse
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, fmt.Errorf("decoding job status: %w", err)
		}
		if st.Status != "queued" {
			return &st, nil
		}
	}
}
