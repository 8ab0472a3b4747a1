package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// maxBodyBytes caps every POST body. Requests are small JSON documents; the
// cap keeps one client from holding server memory with an endless body.
const maxBodyBytes = 1 << 20

// Server is the HTTP surface over a job Manager.
type Server struct {
	mgr   *Manager
	mux   *http.ServeMux
	start time.Time
}

// New builds a server (and its manager) from a config.
func New(cfg ManagerConfig) *Server {
	s := &Server{mgr: NewManager(cfg), start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/explore", s.handleExplore)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/selfcheck", s.handleSelfcheck)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// Manager exposes the underlying job manager to the tests.
func (s *Server) Manager() *Manager { return s.mgr }

// Handler returns the routing handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the manager.
func (s *Server) Close() { s.mgr.Close() }

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes a 200 JSON body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// decode parses a JSON request body strictly (unknown fields are client
// errors, mirroring the catalogue loader's posture).
func decode(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodeBody decodes a POST body capped at maxBodyBytes. On failure it
// writes the error response — 413 when the body passed the cap, 400
// otherwise — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := decode(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, "bad %s request: %v", what, err)
	return false
}

// submit is the common admission tail of the three POST endpoints: overload
// maps to 429 + Retry-After, validation errors to 400, accepted async jobs
// to 202 with the job id, and sync jobs to an attached wait.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, sync bool,
	do func(detached bool) (*Job, bool, error)) {
	j, coalesced, err := do(!sync)
	switch {
	case err == ErrBusy:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "server at capacity: retry shortly")
		return
	case err == ErrShutdown:
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !sync {
		writeJSON(w, http.StatusAccepted, map[string]any{
			"job_id": j.ID, "state": j.Snapshot(false).State, "coalesced": coalesced,
		})
		return
	}
	// Sync: the request holds one waiter reference for its lifetime. A
	// client disconnect releases it; the last release cancels the execution.
	defer j.release()
	select {
	case <-j.Done():
	case <-r.Context().Done():
		// The deferred release propagates the disconnect; nothing to write —
		// the client is gone.
		return
	}
	st := j.Snapshot(true)
	code := http.StatusOK
	switch st.State {
	case StateFailed:
		code = http.StatusUnprocessableEntity
	case StateCancelled:
		code = http.StatusConflict
	}
	writeJSON(w, code, st)
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	if !decodeBody(w, r, "explore", &req) {
		return
	}
	s.submit(w, r, req.Sync, func(detached bool) (*Job, bool, error) {
		return s.mgr.SubmitExplore(&req, detached)
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeBody(w, r, "sweep", &req) {
		return
	}
	s.submit(w, r, req.Sync, func(detached bool) (*Job, bool, error) {
		return s.mgr.SubmitSweep(&req, detached)
	})
}

func (s *Server) handleSelfcheck(w http.ResponseWriter, r *http.Request) {
	var req SelfcheckRequest
	if !decodeBody(w, r, "selfcheck", &req) {
		return
	}
	s.submit(w, r, req.Sync, func(detached bool) (*Job, bool, error) {
		return s.mgr.SubmitSelfcheck(&req, detached)
	})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot(true))
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.mgr.Cancel(id) {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"job_id": id, "state": "cancelling"})
}

// handleJobStream streams progress until the job settles: NDJSON lines by
// default ({"done":...,"total":...} samples, then the final Status), or SSE
// events when the client asks with Accept: text/event-stream. The streaming
// connection holds a waiter reference, so abandoning every stream of a
// non-detached job cancels the sweep mid-chunk.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	fl, canFlush := w.(http.Flusher)
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	j.attach()
	defer j.release()

	enc := json.NewEncoder(w)
	emit := func(event string, v any) {
		if sse {
			fmt.Fprintf(w, "event: %s\ndata: ", event)
		}
		enc.Encode(v)
		if sse {
			fmt.Fprint(w, "\n")
		}
		if canFlush {
			fl.Flush()
		}
	}

	last := Progress{Done: -1}
	for {
		p, edge := j.progressEdge()
		if p.Total > 0 && p.Done > last.Done {
			last = p
			emit("progress", p)
		}
		select {
		case <-j.Done():
			// Drain the final progress sample before the terminal status.
			if p, _ := j.progressEdge(); p.Total > 0 && p.Done > last.Done {
				emit("progress", p)
			}
			emit("result", j.Snapshot(true))
			return
		case <-r.Context().Done():
			return
		case <-edge:
		}
	}
}

// handleMetrics reports the operational surface: jobs by state, queue and
// in-flight depth, admission and coalescing counters, the recent latency
// quantiles, and the shared eval cache's hit statistics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	met := s.mgr.Metrics()
	es := s.mgr.Evaluator().Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_s":    time.Since(s.start).Seconds(),
		"jobs":        s.mgr.Counts(),
		"queue_depth": s.mgr.QueueDepth(),
		"in_flight":   s.mgr.Running(),
		"accepted":    met.Accepted.Load(),
		"rejected":    met.Rejected.Load(),
		"coalesced":   met.Coalesced.Load(),
		"completed":   met.Completed.Load(),
		"failed":      met.Failed.Load(),
		"cancelled":   met.Cancelled.Load(),
		"latency":     met.Latency(),
		"cache": map[string]any{
			"hits":     es.Hits,
			"misses":   es.Misses,
			"entries":  es.Entries,
			"hit_rate": es.HitRate(),
		},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}
