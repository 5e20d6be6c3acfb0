package server

import (
	"encoding/json"
	"io"
	"net/http"

	"cloudviews/internal/signature"
)

// GuardActionRequest carries the simulated day an admin guard action is
// logged under. Guard decisions are keyed by day, so forced trips and kills
// need one; 0 is fine for live systems that do not track days.
type GuardActionRequest struct {
	Day int `json:"day"`
}

// guardRoutes mounts the guard admin plane. All routes require the admin
// token; every one answers 409 when the wrapped System runs guard-free, so
// an operator probing a misconfigured deployment gets a diagnosis rather
// than a silent no-op.
func (s *Server) guardRoutes(mux *http.ServeMux) {
	mux.HandleFunc("GET /admin/guard", s.admin(s.handleGuardSnapshot))
	mux.HandleFunc("GET /admin/guard/log", s.admin(s.handleGuardLog))
	mux.HandleFunc("POST /admin/guard/breakers/{sig}/trip", s.admin(s.handleBreakerTrip))
	mux.HandleFunc("POST /admin/guard/breakers/{sig}/reset", s.admin(s.handleBreakerReset))
	mux.HandleFunc("POST /admin/guard/vcs/{vc}/kill", s.admin(s.handleGuardKill))
	mux.HandleFunc("POST /admin/guard/vcs/{vc}/restore", s.admin(s.handleGuardRestore))
}

// guardOr409 answers 409 when the wrapped System runs guard-free; a false
// return means the response has been written.
func (s *Server) guardOr409(w http.ResponseWriter) bool {
	if s.sys.Guard() == nil {
		writeError(w, http.StatusConflict, "", 0, "guard subsystem is not enabled on this system")
		return false
	}
	return true
}

func (s *Server) handleGuardSnapshot(w http.ResponseWriter, r *http.Request) {
	if !s.guardOr409(w) {
		return
	}
	writeJSON(w, http.StatusOK, s.sys.Guard().Snapshot())
}

func (s *Server) handleGuardLog(w http.ResponseWriter, r *http.Request) {
	if !s.guardOr409(w) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(s.sys.Guard().RenderLog() + "\n"))
}

// decodeGuardAction reads the optional {"day": N} body; an empty body means
// day 0. Any other body that does not decode is answered with 400, and a
// false return means the response has been written.
func decodeGuardAction(w http.ResponseWriter, r *http.Request) (GuardActionRequest, bool) {
	var req GuardActionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		writeError(w, http.StatusBadRequest, "", 0, "invalid JSON body: %v", err)
		return req, false
	}
	return req, true
}

func (s *Server) handleBreakerTrip(w http.ResponseWriter, r *http.Request) {
	if !s.guardOr409(w) {
		return
	}
	req, ok := decodeGuardAction(w, r)
	if !ok {
		return
	}
	sig := signature.Sig(r.PathValue("sig"))
	s.sys.Guard().TripBreaker(req.Day, sig)
	s.reg.Counter("cvserve_guard_admin_actions_total").Inc()
	writeJSON(w, http.StatusOK, map[string]any{"sig": string(sig), "breaker": "open", "day": req.Day})
}

func (s *Server) handleBreakerReset(w http.ResponseWriter, r *http.Request) {
	if !s.guardOr409(w) {
		return
	}
	req, ok := decodeGuardAction(w, r)
	if !ok {
		return
	}
	sig := signature.Sig(r.PathValue("sig"))
	s.sys.Guard().ResetBreaker(req.Day, sig)
	s.reg.Counter("cvserve_guard_admin_actions_total").Inc()
	writeJSON(w, http.StatusOK, map[string]any{"sig": string(sig), "breaker": "closed", "day": req.Day})
}

func (s *Server) handleGuardKill(w http.ResponseWriter, r *http.Request) {
	if !s.guardOr409(w) {
		return
	}
	req, ok := decodeGuardAction(w, r)
	if !ok {
		return
	}
	vc := r.PathValue("vc")
	s.sys.Guard().KillVC(req.Day, vc)
	s.reg.Counter("cvserve_guard_admin_actions_total").Inc()
	writeJSON(w, http.StatusOK, map[string]any{"vc": vc, "reuse": "killed", "day": req.Day})
}

func (s *Server) handleGuardRestore(w http.ResponseWriter, r *http.Request) {
	if !s.guardOr409(w) {
		return
	}
	req, ok := decodeGuardAction(w, r)
	if !ok {
		return
	}
	vc := r.PathValue("vc")
	s.sys.Guard().RestoreVC(req.Day, vc)
	s.reg.Counter("cvserve_guard_admin_actions_total").Inc()
	writeJSON(w, http.StatusOK, map[string]any{"vc": vc, "reuse": "restored", "day": req.Day})
}
