package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"dgr"
	"dgr/internal/obs"
)

// evalRequest is the POST /v1/eval body.
type evalRequest struct {
	Tenant  string `json:"tenant,omitempty"`
	Program string `json:"program"`
	List    bool   `json:"list,omitempty"`
	// Async returns a job handle immediately instead of waiting for the
	// result; poll GET /v1/jobs/<id>.
	Async bool `json:"async,omitempty"`
	// Stream responds with JSON Lines: status snapshots while the job is
	// queued/running, then the final snapshot.
	Stream bool `json:"stream,omitempty"`
}

// errorBody is the JSON envelope every structured failure uses.
type errorBody struct {
	Error *Error `json:"error"`
}

// Handler returns the server's HTTP API:
//
//	POST /v1/eval           evaluate (sync by default; async/stream opt-in)
//	GET  /v1/jobs/<id>      job status and result
//	GET  /metrics           Prometheus exposition (pool + per-tenant series)
//	GET  /debug/serve.json  pool/cache/tenant digest incl. check violations
//	GET  /debug/traces.json assembled lineage traces with critical paths
//	GET  /healthz           liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/eval", s.handleEval)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/serve.json", s.handleDebug)
	mux.HandleFunc("/debug/traces.json", s.handleTraces)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to recover
}

// errorStatus maps structured codes onto HTTP statuses: admission
// rejections are 429 (retryable), parse errors 400, a tenant past the
// server's cap 403 (it stays refused), shutdown 503, evaluation failures 422.
func errorStatus(e *Error) int {
	switch e.Code {
	case CodeQueueFull, CodeTenantInflight, CodeTenantQuota:
		return http.StatusTooManyRequests
	case CodeTenantLimit:
		return http.StatusForbidden
	case CodeParse, CodeBadRequest:
		return http.StatusBadRequest
	case CodeClosed:
		return http.StatusServiceUnavailable
	case CodeNotFound:
		return http.StatusNotFound
	default:
		return http.StatusUnprocessableEntity
	}
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{&Error{
			Code: CodeBadRequest, Message: "POST required"}})
		return
	}
	var req evalRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{&Error{
			Code: CodeBadRequest, Message: "invalid JSON body: " + err.Error()}})
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get("X-DGR-Tenant")
	}
	j, err := s.Submit(Request{Tenant: req.Tenant, Program: req.Program, List: req.List})
	if err != nil {
		var se *Error
		if errors.As(err, &se) {
			writeJSON(w, errorStatus(se), errorBody{se})
		} else {
			writeJSON(w, http.StatusInternalServerError, errorBody{&Error{
				Code: CodeBadRequest, Message: err.Error()}})
		}
		return
	}
	switch {
	case req.Stream:
		s.streamJob(w, r, j)
	case req.Async:
		writeJSON(w, http.StatusAccepted, j.View())
	default:
		view, _ := j.Wait(r.Context())
		writeJSON(w, viewStatus(view), view)
	}
}

func viewStatus(v JobView) int {
	if v.Status == StatusFailed && v.Err != nil {
		return errorStatus(v.Err)
	}
	return http.StatusOK
}

// streamJob writes JSON Lines: one snapshot immediately, one whenever the
// job is still unfinished after each heartbeat interval, and the final
// snapshot when it completes.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *Job) {
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(v JobView) {
		enc.Encode(v) //nolint:errcheck // client went away; nothing to recover
		if fl != nil {
			fl.Flush()
		}
	}
	emit(j.View())
	heartbeat := time.NewTicker(250 * time.Millisecond)
	defer heartbeat.Stop()
	for {
		select {
		case <-j.Done():
			emit(j.View())
			return
		case <-heartbeat.C:
			emit(j.View())
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	j, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{&Error{
			Code: CodeNotFound, Message: fmt.Sprintf("unknown job %q", id)}})
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := obs.WritePrometheus(w, s.promData()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// promData aggregates the pool into one exposition: counters sum over every
// machine it has held, occupancy over the machines the workers hold now, and
// the serving layer contributes the tenant-labeled series.
func (s *Server) promData() obs.PromData {
	d := obs.PromData{Tenants: s.TenantProms()}
	s.mu.Lock()
	d.Stats = s.machineTotalsLocked()
	held := make([]*dgr.Machine, 0, len(s.workers))
	for _, w := range s.workers {
		if w.m != nil {
			held = append(held, w.m)
		}
	}
	s.mu.Unlock()
	// A seeded machine's gauges are read under its owner lock, which its
	// evaluation holds for a collector interval at a time: not under the
	// server mutex, which admission takes.
	for _, m := range held {
		d.Gauges = d.Gauges.Add(m.Gauges())
	}
	return d
}

// handleTraces serves the assembled lineage traces (an obs.TraceDoc). 404
// when tracing is off so probes can distinguish "no traces yet" from
// "not tracing".
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.trace == nil {
		writeJSON(w, http.StatusNotFound, errorBody{&Error{
			Code: CodeNotFound, Message: "lineage tracing disabled (set -trace-rate)"}})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.WriteTracesJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// debugState is the GET /debug/serve.json document.
type debugState struct {
	Pool       PoolStats        `json:"pool"`
	Tenants    []obs.TenantProm `json:"tenants"`
	Violations []string         `json:"violations"`
}

func (s *Server) handleDebug(w http.ResponseWriter, r *http.Request) {
	viol := s.Violations()
	if viol == nil {
		viol = []string{}
	}
	writeJSON(w, http.StatusOK, debugState{
		Pool:       s.Stats(),
		Tenants:    s.TenantProms(),
		Violations: viol,
	})
}
