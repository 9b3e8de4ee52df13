package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
)

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response was produced. Server-side deadline expiry is
// distinct and maps to 504.
const statusClientClosedRequest = 499

// maxBodyBytes bounds request bodies accepted by the HTTP handler.
const maxBodyBytes = 32 << 20

// NewHandler exposes the service over HTTP:
//
//	POST   /v1/rank        RankRequest  → RankResponse (sync)
//	POST   /v1/rank/batch  BatchRequest → BatchResponse (sync)
//	POST   /v1/jobs/rank   BatchRequest → JobSubmitResponse (async, 202;
//	                       webhook_url subscribes to the completion event)
//	GET    /v1/jobs        JobListResponse (cursor paging via ?after=,
//	                       ?limit=, state filters via repeated ?state=)
//	GET    /v1/jobs/{id}   JobStatusResponse (progress; items once done)
//	DELETE /v1/jobs/{id}   cancel+delete an unfinished job (204); a
//	                       finished job is 409 (eviction is the TTL's job)
//	GET    /v1/algorithms  CatalogResponse (introspection)
//	GET    /v1/metrics     MetricsResponse (transport/queue/jobs/engine)
//	GET    /healthz        liveness probe (process is up)
//	GET    /readyz         readiness probe (503 once draining)
//
// Every route runs behind the transport middleware stack: request-ID
// injection (X-Request-Id, inbound IDs preserved), optional structured
// access logging (Config.AccessLog), panic recovery (500 instead of a
// torn connection), and per-route latency/inflight/error counters
// served by GET /v1/metrics.
//
// Error mapping: request-caused failures (ErrInvalid, malformed JSON)
// return 400 with a JSON {"error": "..."} body; a body over the 32 MiB
// limit 413 with the gateway's "reading request body: ..." message;
// unknown job IDs 404;
// deleting a finished job 409; a saturated admission queue or job
// store 429 with Retry-After; a
// draining service 503 (new jobs) with Retry-After; a client
// cancellation 499; a deadline expiry 504; anything else 500. Each
// request's context flows into the sampling loops, so client
// disconnects abort in-flight ranking work.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, chain(h, routeMetrics(s.stats.route(pattern))))
	}
	route("POST /v1/rank", func(w http.ResponseWriter, r *http.Request) {
		var req RankRequest
		if !decode(w, r, &req, s.cfg.MaxCandidates, decodeRankRequest) {
			return
		}
		resp, err := s.Rank(r.Context(), &req)
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	route("POST /v1/rank/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if !decode(w, r, &req, s.cfg.MaxCandidates, decodeBatchRequest) {
			return
		}
		resp, err := s.RankBatch(r.Context(), &req)
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	route("POST /v1/jobs/rank", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if !decode(w, r, &req, s.cfg.MaxCandidates, decodeBatchRequest) {
			return
		}
		resp, err := s.SubmitJob(&req)
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, resp)
	})
	route("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		limit := 0
		if raw := q.Get("limit"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 1 {
				s.writeError(w, invalidf("limit %q is not a positive integer", raw))
				return
			}
			limit = n
		}
		resp, err := s.ListJobs(q["state"], q.Get("after"), limit)
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	route("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		resp, err := s.JobStatus(r.PathValue("id"))
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	route("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.CancelJob(r.PathValue("id")); err != nil {
			s.writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	route("GET /v1/algorithms", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Catalog())
	})
	route("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	route("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	route("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		resp, ready := s.Readyz()
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, resp)
	})
	return chain(mux,
		requestID(),
		accessLog(s.cfg.AccessLog),
		recovery(s.stats, s.cfg.AccessLog),
	)
}

// decode reads the bounded body (see ReadBody) and decodes it into
// dst; a body that does not decode is 400 "malformed JSON".
func decode[T any](w http.ResponseWriter, r *http.Request, dst *T, maxCandidates int, dec func([]byte, *T, int) error) bool {
	body, ok := ReadBody(w, r, maxBodyBytes)
	if !ok {
		return false
	}
	if err := dec(body, dst, maxCandidates); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed JSON: " + err.Error()})
		return false
	}
	return true
}

// writeError maps service errors onto wire statuses; see NewHandler.
func (s *Service) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrInvalid):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrConflict):
		status = http.StatusConflict
	case errors.Is(err, ErrSaturated):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(int(s.queue.RetryAfter().Seconds())))
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(int(s.queue.RetryAfter().Seconds())))
	case errors.Is(err, context.Canceled):
		status = statusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		// The budget for producing a response ran out server-side:
		// a gateway timeout, not a client disconnect.
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding failures past WriteHeader can only be logged by the
	// server; the types here marshal unconditionally.
	_ = json.NewEncoder(w).Encode(v)
}
