package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// BatchRequest is the JSON body of POST /v1/batch: up to
// Options.MaxBatch generate requests evaluated concurrently.
type BatchRequest struct {
	Requests []GenerateRequest `json:"requests"`
}

// BatchItem is one sub-request's outcome. Exactly one of Response and
// Error is set; Status is the HTTP status the same body would have
// earned on /v1/generate.
type BatchItem struct {
	Status   int               `json:"status"`
	Response *GenerateResponse `json:"response,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// BatchResponse is the JSON body of a /v1/batch reply; Items is
// index-aligned with the request's Requests.
type BatchResponse struct {
	RequestID      string      `json:"request_id"`
	ElapsedSeconds float64     `json:"elapsed_seconds"`
	Items          []BatchItem `json:"items"`
}

// handleBatch fans a batch through the same cache, singleflight and
// generation path as /v1/generate. The batch occupies one admission
// slot; its sub-requests run under the async job tier's shared worker
// budget (jobs.Manager.Do), so batch fan-out, queued jobs and other
// concurrent batches all draw from one bounded pool instead of each
// batch privately fanning MaxInFlight-wide — the oversubscription the
// old scheme allowed (one slot held, MaxInFlight more goroutines).
// Items with identical canonical bodies still collapse into one
// generation via singleflight, which is the point of batching
// duplicate-heavy workloads.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var batch BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("serve: decoding batch body: %w", err))
		return
	}
	if len(batch.Requests) == 0 {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("serve: empty batch"))
		return
	}
	if len(batch.Requests) > s.opts.MaxBatch {
		s.writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("serve: batch of %d exceeds the %d-request limit", len(batch.Requests), s.opts.MaxBatch))
		return
	}

	start := time.Now()
	items := make([]BatchItem, len(batch.Requests))
	ri := requestInfo(r.Context())
	// Per-item failures land in items so one bad sub-request does not
	// abort its siblings; a Do admission failure (request timeout while
	// waiting for a worker slot) reports on the item the same way.
	var wg sync.WaitGroup
	for i := range batch.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := batch.Requests[i]
			cfg, err := s.resolve(req)
			if err != nil {
				items[i] = BatchItem{Status: http.StatusBadRequest, Error: err.Error()}
				return
			}
			itemStart := time.Now()
			err = s.jobs.Do(r.Context(), func() error {
				out, err := s.generate(r.Context(), req, cfg, ri)
				if err != nil {
					return err
				}
				items[i] = BatchItem{
					Status: http.StatusOK,
					Response: &GenerateResponse{
						RequestID:      fmt.Sprintf("%s/%d", RequestID(r.Context()), i),
						ElapsedSeconds: time.Since(itemStart).Seconds(),
						CacheStatus:    out.status,
						Metrics:        out.metrics,
						Warnings:       out.warnings,
						Counters:       out.counters,
					},
				}
				return nil
			})
			if err != nil {
				items[i] = BatchItem{Status: statusOf(err), Error: err.Error()}
			}
		}(i)
	}
	wg.Wait()

	writeJSON(w, http.StatusOK, BatchResponse{
		RequestID:      RequestID(r.Context()),
		ElapsedSeconds: time.Since(start).Seconds(),
		Items:          items,
	})
}
