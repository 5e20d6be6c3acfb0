package server

import (
	"net/http"

	"cloudviews"
	"cloudviews/internal/telemetry"
)

// ExplainResponse is the per-job reuse-provenance report: one structured
// decision per candidate view considered, in decision order.
type ExplainResponse struct {
	ID        string                       `json:"id"`
	VC        string                       `json:"vc"`
	Decisions []cloudviews.ExplainDecision `json:"decisions"`
}

// handleJobExplain serves GET /v1/jobs/{id}/explain: the tenant-scoped
// structured counterpart of the trace endpoint. Same lifecycle contract:
// 409 while queued, 422 for a failed job, 404 when observability is off.
func (s *Server) handleJobExplain(w http.ResponseWriter, r *http.Request) {
	who, admin, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	e, ok := s.lookupJob(w, r, who.name, admin)
	if !ok {
		return
	}
	res, jerr, status := s.resolve(e)
	if status == "queued" {
		writeError(w, http.StatusConflict, "", 0, "job %q is still %s", r.PathValue("id"), status)
		return
	}
	if jerr != nil {
		writeError(w, http.StatusUnprocessableEntity, "", 0, "job failed: %v", jerr)
		return
	}
	ds := res.Explain()
	if ds == nil {
		writeError(w, http.StatusNotFound, "", 0, "explain is disabled on this system")
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{ID: r.PathValue("id"), VC: e.vc, Decisions: ds})
}

// handleAdminExplain serves GET /admin/explain: the fleet-wide miss-reason
// rollup (per-day, per-VC, with forfeited container-seconds) built from the
// live telemetry snapshot. JSON output is deterministic: map keys serialize
// sorted and days are ordered.
func (s *Server) handleAdminExplain(w http.ResponseWriter, r *http.Request) {
	rt := s.sys.Telemetry()
	if rt == nil {
		writeError(w, http.StatusNotFound, "", 0, "telemetry is disabled on this system")
		return
	}
	writeJSON(w, http.StatusOK, telemetry.BuildExplainRollup(rt))
}
