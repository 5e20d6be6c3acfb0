package server

// Per-tenant token-bucket rate limiting. Buckets refill continuously at
// Rate tokens/second up to Burst; each submission attempt spends one token.
// The clock is injected (Config.now) so tests drive it deterministically.

import (
	"sync"
	"time"
)

// tokenBucket is one tenant's bucket.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 means unlimited
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
}

// allow spends one token if available. A full bucket is granted on first
// use, so a fresh tenant can burst immediately.
func (b *tokenBucket) allow(now time.Time) bool {
	if b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.tokens = b.burst
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// retryAfter estimates the seconds until one token is available; callers
// surface it on 429 responses. Zero when the bucket would admit now.
func (b *tokenBucket) retryAfter() float64 {
	if b.rate <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	missing := 1 - b.tokens
	if missing <= 0 {
		return 0
	}
	return missing / b.rate
}

// limiter hands out one bucket per tenant, all with the same rate and burst.
type limiter struct {
	mu          sync.Mutex
	buckets     map[string]*tokenBucket
	rate, burst float64
}

// newLimiter resolves Config.Rate and Config.Burst: a negative rate is
// unlimited, and a burst of 0 or less is max(1, rate).
func newLimiter(rate, burst float64) *limiter {
	rate = max(rate, 0)
	if burst <= 0 {
		burst = max(rate, 1)
	}
	return &limiter{buckets: make(map[string]*tokenBucket), rate: rate, burst: burst}
}

func (l *limiter) bucket(tenant string) *tokenBucket {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[tenant]
	if !ok {
		b = &tokenBucket{rate: l.rate, burst: l.burst}
		l.buckets[tenant] = b
	}
	return b
}
