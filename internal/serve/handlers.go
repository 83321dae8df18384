package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/joblog"
	"repro/internal/raslog"
)

// maxBatchBytes bounds an ingest request body; a campaign is fed in
// many batches, not one giant POST.
const maxBatchBytes = 64 << 20

// Server is the HTTP face of an Engine.
//
// Endpoints:
//
//	POST /v1/ingest/ras    — body: RAS log lines; all-or-nothing batch
//	POST /v1/ingest/job    — body: job log lines; all-or-nothing batch
//	POST /v1/seal          — force-seal the active segment and flush
//	POST /v1/publish       — publish a new epoch from the live state
//	POST /v1/quiesce       — seal + publish (durable, fully consistent)
//	GET  /v1/epoch         — current epoch summary
//	GET  /v1/query/{name}  — rates | mtbf | interruptions | vulnerability
//	GET  /v1/report/{name} — rendered report fragment (text/plain)
//	GET  /v1/scan          — window profile over the segment set with
//	                         zone-map pushdown; params: from, to
//	                         (RFC 3339), code, loc
//	GET  /healthz          — liveness + current epoch number
//
// Queries are served from the last published epoch and return 503
// until the first publication. Errors are structured JSON:
// {"error": "...", "line": N} with line set for parse failures.
type Server struct {
	e   *Engine
	mux *http.ServeMux
}

// NewServer wraps an engine.
func NewServer(e *Engine) *Server {
	s := &Server{e: e, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/ingest/ras", s.ingestRAS)
	s.mux.HandleFunc("POST /v1/ingest/job", s.ingestJob)
	s.mux.HandleFunc("POST /v1/seal", s.seal)
	s.mux.HandleFunc("POST /v1/publish", s.publish)
	s.mux.HandleFunc("POST /v1/quiesce", s.quiesce)
	s.mux.HandleFunc("GET /v1/epoch", s.epoch)
	s.mux.HandleFunc("GET /v1/query/{name}", s.query)
	s.mux.HandleFunc("GET /v1/report/{name}", s.report)
	s.mux.HandleFunc("GET /v1/scan", s.scan)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// apiError is the structured error body.
type apiError struct {
	Error string `json:"error"`
	Line  int    `json:"line,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, line int, format string, args ...any) {
	b, _ := json.Marshal(apiError{Error: fmt.Sprintf(format, args...), Line: line})
	writeJSON(w, status, append(b, '\n'))
}

func (s *Server) ingestRAS(w http.ResponseWriter, r *http.Request) {
	rd := raslog.NewReader(http.MaxBytesReader(w, r.Body, maxBatchBytes))
	recs, err := rd.ReadAll()
	if err != nil {
		// The decoder stops at the first bad line; nothing reaches the
		// engine, so the batch has no partial effect.
		writeError(w, http.StatusBadRequest, rd.Line(), "parsing RAS batch: %v", err)
		return
	}
	if err := s.e.IngestRAS(recs); err != nil {
		status := http.StatusConflict
		line := 0
		if oe, ok := err.(*OrderError); ok {
			line = oe.Index + 1
		} else {
			status = http.StatusInternalServerError
		}
		writeError(w, status, line, "%v", err)
		return
	}
	fatal := 0
	for i := range recs {
		if recs[i].Fatal() {
			fatal++
		}
	}
	b, _ := json.Marshal(map[string]any{"accepted": len(recs), "fatal": fatal})
	writeJSON(w, http.StatusOK, append(b, '\n'))
}

func (s *Server) ingestJob(w http.ResponseWriter, r *http.Request) {
	rd := joblog.NewReader(http.MaxBytesReader(w, r.Body, maxBatchBytes))
	jobs, err := rd.ReadAll()
	if err != nil {
		writeError(w, http.StatusBadRequest, rd.Line(), "parsing job batch: %v", err)
		return
	}
	if err := s.e.IngestJobs(jobs); err != nil {
		status := http.StatusConflict
		line := 0
		if oe, ok := err.(*OrderError); ok {
			line = oe.Index + 1
		} else {
			status = http.StatusInternalServerError
		}
		writeError(w, status, line, "%v", err)
		return
	}
	b, _ := json.Marshal(map[string]any{"accepted": len(jobs)})
	writeJSON(w, http.StatusOK, append(b, '\n'))
}

func (s *Server) seal(w http.ResponseWriter, _ *http.Request) {
	if err := s.e.Seal(); err != nil {
		writeError(w, http.StatusInternalServerError, 0, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, []byte("{\"sealed\":true}\n"))
}

func (s *Server) publish(w http.ResponseWriter, _ *http.Request) {
	ep, err := s.e.Publish()
	if err != nil {
		writeError(w, http.StatusConflict, 0, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ep.Summary())
}

func (s *Server) quiesce(w http.ResponseWriter, _ *http.Request) {
	ep, err := s.e.Quiesce()
	if err != nil {
		writeError(w, http.StatusConflict, 0, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ep.Summary())
}

// current returns the published epoch or writes the 503 that precedes
// the first publication.
func (s *Server) current(w http.ResponseWriter) *Epoch {
	ep := s.e.Epoch()
	if ep == nil {
		writeError(w, http.StatusServiceUnavailable, 0, "no epoch published yet (POST /v1/publish after ingesting)")
		return nil
	}
	return ep
}

func (s *Server) epoch(w http.ResponseWriter, _ *http.Request) {
	if ep := s.current(w); ep != nil {
		writeJSON(w, http.StatusOK, ep.Summary())
	}
}

func (s *Server) query(w http.ResponseWriter, r *http.Request) {
	ep := s.current(w)
	if ep == nil {
		return
	}
	name := r.PathValue("name")
	body, ok := ep.Query(name)
	if !ok {
		writeError(w, http.StatusNotFound, 0, "unknown query %q; want one of %s",
			name, strings.Join(QueryNames(), ", "))
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) report(w http.ResponseWriter, r *http.Request) {
	ep := s.current(w)
	if ep == nil {
		return
	}
	name := r.PathValue("name")
	body, err := ep.Fragment(name)
	if err != nil {
		if _, known := ep.frags[name]; !known {
			writeError(w, http.StatusNotFound, 0, "unknown artifact %q; want one of %s",
				name, strings.Join(ep.FragmentNames(), ", "))
			return
		}
		writeError(w, http.StatusConflict, 0, "rendering %s: %v", name, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// scanPayload is the /v1/scan response: the window profile plus what
// the pushdown scan touched (skipped counts segments refuted by zone
// maps alone).
type scanPayload struct {
	Profile  core.WindowProfile `json:"profile"`
	Segments int                `json:"segments"`
	Skipped  int                `json:"skipped"`
	Scanned  int                `json:"scanned"`
}

func (s *Server) scan(w http.ResponseWriter, r *http.Request) {
	var cfg core.WindowConfig
	q := r.URL.Query()
	if v := q.Get("from"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			writeError(w, http.StatusBadRequest, 0, "bad from time %q: %v", v, err)
			return
		}
		cfg.From = t
	}
	if v := q.Get("to"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			writeError(w, http.StatusBadRequest, 0, "bad to time %q: %v", v, err)
			return
		}
		cfg.To = t
	}
	cfg.Code = q.Get("code")
	cfg.Loc = q.Get("loc")
	prof, stats, err := s.e.ScanWindow(cfg)
	if err != nil {
		writeError(w, http.StatusInternalServerError, 0, "%v", err)
		return
	}
	b, _ := json.Marshal(scanPayload{
		Profile:  prof,
		Segments: stats.Segments,
		Skipped:  stats.Skipped,
		Scanned:  stats.Scanned,
	})
	writeJSON(w, http.StatusOK, append(b, '\n'))
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	var seq uint64
	if ep := s.e.Epoch(); ep != nil {
		seq = ep.Seq
	}
	b, _ := json.Marshal(map[string]any{"ok": true, "epoch": seq})
	writeJSON(w, http.StatusOK, append(b, '\n'))
}
