package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// handleJob reports one job's state. Plain GETs return the JSON view; with
// ?stream=1 or Accept: text/event-stream the response is a server-sent event
// stream: a "status" event immediately, "progress" events sampled from the
// live machine snapshot while the job runs, and a terminal "done" event
// carrying the final view.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	wantStream := r.URL.Query().Get("stream") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if !wantStream {
		writeJSON(w, http.StatusOK, j.view())
		return
	}
	s.streamJob(w, r, j)
}

// streamJob writes the SSE progress stream until the job finishes or the
// client goes away.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotAcceptable, apiError{Error: "streaming unsupported by this connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	emit := func(event string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
		fl.Flush()
	}

	emit("status", j.view())
	ticker := time.NewTicker(s.cfg.ProgressInterval)
	defer ticker.Stop()
	for {
		select {
		case <-j.done:
			emit("done", j.view())
			return
		case <-r.Context().Done():
			// The watcher went away; the job itself keeps running.
			return
		case <-ticker.C:
			if p := j.sampleProgress(); p.Status == StatusRunning {
				emit("progress", p)
			}
		}
	}
}
