package server

// Queue-depth admission control. Every submission (async queued or sync
// inline) holds one admission slot for its VC from acceptance to
// completion; when a VC is at its depth limit — or the server at its global
// limit — new submissions are shed with 429 before they touch the System,
// so a shed request is side-effect-free by construction: no job ID
// consumed, no system metrics moved, no repository record written.

import "sync"

// admission tracks in-flight submissions per VC and globally.
type admission struct {
	mu       sync.Mutex
	perVC    map[string]int
	total    int
	maxTotal int // <= 0 is unbounded
	maxPerVC int // <= 0 admits nothing
}

func newAdmission(maxTotal, maxPerVC int) *admission {
	return &admission{perVC: make(map[string]int), maxTotal: maxTotal, maxPerVC: maxPerVC}
}

// tryAcquire claims a slot for vc. It fails — without side effects — when
// the VC or the server is saturated.
func (a *admission) tryAcquire(vc string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.maxTotal > 0 && a.total >= a.maxTotal {
		return false
	}
	if a.maxPerVC <= 0 || a.perVC[vc] >= a.maxPerVC {
		return false
	}
	a.perVC[vc]++
	a.total++
	return true
}

// release returns a slot claimed by tryAcquire.
func (a *admission) release(vc string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.perVC[vc] > 0 {
		a.perVC[vc]--
		a.total--
		if a.perVC[vc] == 0 {
			delete(a.perVC, vc)
		}
	}
}

// inflight returns the global in-flight count.
func (a *admission) inflight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}
