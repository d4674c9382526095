package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Handler wraps the server in its HTTP API:
//
//	POST /query   — body: Query JSON; 200 Result, 429/503 on shed, 400 on junk
//	POST /mutate  — body: Mutation JSON; 200 Result (Kind "mutate", new epoch)
//	                (both: 413 for a body no batch of MutBatchCap edges needs)
//	GET  /graphs  — resident graph keys, most recently used first
//	GET  /statsz  — Stats counters (per-graph epochs, pending mutation depth)
//	GET  /healthz — liveness: 200 "ok" while the process serves HTTP at all
//	GET  /readyz  — readiness: 200 "ready" when accepting work and no
//	                crash-recovery replay is in progress, else 503
func Handler(s *Server) http.Handler {
	// 64 bytes hold an edge of two 19-digit ids with room to spare, and 4 KiB
	// the rest of a Mutation; a Query is far smaller than either.
	maxBody := 4096 + 64*int64(s.cfg.MutBatchCap)
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var q Query
		if !decodeBody(w, r, maxBody, "query", &q) {
			return
		}
		res, err := s.Submit(q)
		if err != nil {
			httpError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("/mutate", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var m Mutation
		if !decodeBody(w, r, maxBody, "mutation", &m) {
			return
		}
		res, err := s.Mutate(m)
		if err != nil {
			httpError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("/graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"graphs": s.Graphs()})
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			httpError(w, http.StatusServiceUnavailable, "recovering or closed")
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ready\n"))
	})
	return mux
}

// decodeBody decodes the request's JSON body into v, reading no more than
// limit bytes of it, so that what a client sends is bounded before it is
// parsed. The body must be that one JSON value: anything but whitespace
// after it is refused. On failure it answers — 413 for an oversized body,
// 400 for anything else — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("bad %s: body over %d bytes", what, limit))
	} else {
		httpError(w, http.StatusBadRequest, "bad "+what+": "+err.Error())
	}
	return false
}

// statusFor maps service errors onto HTTP statuses: full queue → 429;
// deadline, eviction, snapshot-gone, and shutdown → 503; malformed queries
// and mutations, and graphs too large for MemWords → 400.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDeadline), errors.Is(err, ErrEvicted),
		errors.Is(err, ErrClosed), errors.Is(err, ErrSnapshotGone):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrRunFailed):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
