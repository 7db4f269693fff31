package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"pka/internal/core"
	"pka/internal/obs"
	"pka/internal/workload"
)

// The streaming endpoint is the serving tier's face of streaming PKS: the
// client POSTs a study request line followed by a kernel-event stream, and
// the server decodes the events into the workload they describe. The
// response is NDJSON — one StreamLine of progress once the events are
// consumed and the selection is resolved, then one final line that is
// byte-identical to what StudyPath returns for the same workload and
// parameters, because the stream selects through the same selection store
// under the same key and the same plan evaluates it.

// StreamProgress is the payload of the progress line: how far the intake
// got.
type StreamProgress struct {
	// Events is the number of launch events consumed.
	Events int `json:"events"`
	// Detailed is the number of kernels profiled in detail.
	Detailed int `json:"detailed"`
}

// StreamLine is one non-final NDJSON line of a StreamPath response.
// Exactly one field is set. The final line of a successful stream is a
// bare StudyResponse, distinguished by carrying neither key.
type StreamLine struct {
	Progress *StreamProgress `json:"progress,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// readLineCapped reads one newline-terminated line of at most max bytes,
// without buffering past it.
func readLineCapped(br *bufio.Reader, max int) ([]byte, error) {
	var buf []byte
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		if len(buf) > max {
			return nil, fmt.Errorf("serve: stream request line exceeds %d bytes", max)
		}
		switch err {
		case nil:
			return buf, nil
		case io.EOF:
			if len(bytes.TrimSpace(buf)) == 0 {
				return nil, io.EOF
			}
			return buf, nil
		case bufio.ErrBufferFull:
			// Keep accumulating up to the cap.
		default:
			return nil, err
		}
	}
}

// decodeStreamRequest parses and validates the request line of a
// streaming study.
func decodeStreamRequest(line []byte) (*StudyRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	req := &StudyRequest{}
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("serve: malformed stream request: %w", err)
	}
	if dec.More() {
		return nil, errors.New("serve: trailing data after stream request")
	}
	if err := req.validateStream(); err != nil {
		return nil, err
	}
	return req, nil
}

// admitStream reserves one long-lived stream slot. Streams bypass the
// fair queue — their work arrives over the wire interleaved with
// execution, so there is nothing to reorder — but they respect drain and
// are capped at the runner width so a flood of streams cannot starve the
// queued tier.
func (s *Server) admitStream() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.drainRejects++
		s.m.DrainRejects.Inc()
		return ErrDraining
	}
	if s.streams >= s.width {
		s.rejected++
		s.m.Rejected.Inc()
		return ErrQueueFull
	}
	s.streams++
	s.inflight++
	s.served++
	s.m.Requests.Inc()
	s.m.InFlight.Set(float64(s.inflight))
	return nil
}

// handleStream implements POST StreamPath.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	br := bufio.NewReaderSize(r.Body, 64*1024)
	line, err := readLineCapped(br, MaxStudyRequestBytes)
	if err == io.EOF {
		err = errors.New("serve: empty stream request")
	}
	var req *StudyRequest
	if err == nil {
		req, err = decodeStreamRequest(line)
	}
	if err != nil {
		s.mu.Lock()
		s.invalid++
		s.mu.Unlock()
		s.m.Invalid.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if tc, ok := obs.ParseTraceparent(r.Header.Get(TraceparentHeader)); ok {
		req.SetTraceParent(tc)
	}
	if err := s.admitStream(); err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		default:
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		}
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	started := s.now()
	sp := s.o.StartSpan("serve-stream", req.Tenant+":"+req.Mode)
	resp, err := s.runStream(req, br, func(p *StreamProgress) {
		_ = enc.Encode(StreamLine{Progress: p})
		if flusher != nil {
			flusher.Flush()
		}
	})
	sp.End()
	total := s.now().Sub(started)
	s.rec.Observe(req.Tenant, 0, total, err != nil)
	s.m.Latency.Observe(total.Seconds())
	s.finish(err != nil, true)
	if err != nil {
		// The status line already went out 200; the error travels in-band,
		// the NDJSON convention for mid-stream failure.
		_ = enc.Encode(StreamLine{Error: err.Error()})
		return
	}
	_ = enc.Encode(resp)
}

// runStream drives one streaming study: core's streaming pipeline, under
// the config and plan /v1/study builds for the same request, decodes and
// evaluates the events; the finished evaluation maps to the response
// /v1/study would return.
func (s *Server) runStream(req *StudyRequest, body io.Reader, progress func(*StreamProgress)) (*StudyResponse, error) {
	dec := workload.NewEventDecoder(body)
	h, err := dec.Header()
	if err != nil {
		return nil, err
	}
	st := newStudy(s.exec, s.o, req, h.Suite+"/"+h.Name)
	// Progress waits for the intake to end: for HTTP/1.x, writing any
	// response byte may stop further reads of the request body, so nothing
	// goes on the wire until the event stream is fully consumed. The line
	// then flushes before the plan's passes — which is where the wall-clock
	// goes — so the client learns the intake is done well ahead of the final
	// response.
	ev, err := core.RunEvents(st.cfg, st.plan, dec, func(events, detailed int) {
		progress(&StreamProgress{Events: events, Detailed: detailed})
	})
	return st.respond(ev, err)
}
