package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// streamFuzzCap is the request-line cap FuzzStreamRequest reads under: small
// enough that fuzz-sized inputs reach the over-cap rejection.
const streamFuzzCap = 512

// FuzzStreamRequest fuzzes StreamPath's request line: the capped line
// reader and the stream-request decoder behind it. Any input either errors
// or yields a request that names no workload, runs a known mode, and
// decodes back to itself from its own encoding.
func FuzzStreamRequest(f *testing.F) {
	for _, s := range []string{
		// Valid: all defaults; every parameter; an event header after the line.
		"{}\n",
		`{"tenant":"prod","device":"turing","mode":"pks","target":2,"s":0.1,"n":64,"maxk":8,"silicon":true,"trace":true,"provenance":true}`,
		`{"mode":"pka"}` + "\n" + `{"stream":"pka-kernel-events-v1","suite":"Rodinia","name":"gauss_208","kernels":414}` + "\n",
		// Structural junk, trailing data, an over-cap line.
		"", "\n", "{", "[]", "null", "{}{}", "{} x", `{"unknown":1}`,
		strings.Repeat(" ", 2*streamFuzzCap) + "{}\n",
		// Workloads belong to the event header; full mode is a mode like any.
		`{"workload":"Rodinia/gauss_mat4"}`,
		`{"workload_json":{"name":"x","kernels":[]}}`,
		`{"workload_json":null}`,
		`{"mode":"full"}`,
		// Out-of-range parameters.
		`{"target":-1}`, `{"s":1}`, `{"n":-7}`, `{"maxk":65}`, `{"device":"z80"}`, `{"tenant":"../x"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The reader's 16-byte buffer drives the accumulate-up-to-the-cap path.
		line, err := readLineCapped(bufio.NewReaderSize(bytes.NewReader(data), 16), streamFuzzCap)
		if err != nil {
			return
		}
		if len(line) > streamFuzzCap {
			t.Fatalf("read a %d-byte line under a %d-byte cap", len(line), streamFuzzCap)
		}
		req, err := decodeStreamRequest(line)
		if err != nil {
			return
		}
		if req.Workload != "" || len(req.WorkloadJSON) > 0 || req.w != nil {
			t.Fatalf("accepted a stream request naming a workload: %s", line)
		}
		if _, ok := studyModes[req.Mode]; !ok {
			t.Fatalf("accepted mode %q", req.Mode)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeStreamRequest(enc)
		if err != nil {
			t.Fatalf("re-encoded request %s rejected: %v", enc, err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("re-encoding changed the request:\n got %+v\nwant %+v", again, req)
		}
	})
}
