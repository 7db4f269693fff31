package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"pka/internal/workload"
)

// The streaming endpoint takes a workload as a kernel-event stream: the
// client POSTs a study request line followed by the events, in the workload
// event format. The events are read whole into the workload they describe,
// and from there the request is a /v1/study request: the same fair queue,
// runner and response bytes as StudyPath returns for the same workload and
// parameters, because the workload selects through the same selection store
// under the same key and the same plan evaluates it.

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
	if req.Workload != "" || len(req.WorkloadJSON) > 0 {
		return nil, errors.New("serve: stream request names a workload; the event-stream header does that")
	}
	if err := req.validateParams(); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeStream reads one StreamPath body: the request line, then the
// event stream, read whole (workload.ReadEvents) into the request's
// workload. Any input either yields a request as DecodeStudyRequest's, with
// its workload and device resolved, or an error.
func decodeStream(r io.Reader) (*StudyRequest, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	line, err := readLineCapped(br, MaxStudyRequestBytes)
	if err == io.EOF {
		err = errors.New("serve: empty stream request")
	}
	if err != nil {
		return nil, err
	}
	req, err := decodeStreamRequest(line)
	if err != nil {
		return nil, err
	}
	if req.w, err = workload.ReadEvents(br); err != nil {
		return nil, fmt.Errorf("serve: event stream: %w", err)
	}
	return req, nil
}
