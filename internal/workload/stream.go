package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"pka/internal/trace"
)

// An NDJSON kernel-event stream is the second file format of a workload:
// one header line naming the workload, then one event line per kernel
// launch, in any order. Unlike the generator-style documents in jsonio.go,
// events carry the *exact* KernelDesc of each launch — every field the
// content key and the simulator read — so a stream written by WriteEvents
// and read back by ReadEvents (or Load) is the original workload launch for
// launch, and a study of it prints what the study of the original does.
//
//	{"stream":"pka-kernel-events-v1","suite":"Rodinia","name":"gauss_208","kernels":208}
//	{"launch":0,"kernel":{"name":"fan1","grid":[1,1,1],"block":[208,1,1],...,"seed":1234}}
//	{"launch":1,"kernel":{...}}

// StreamSchema identifies the event-stream format; bump it when the event
// layout changes meaning.
const StreamSchema = "pka-kernel-events-v1"

// maxEventBytes bounds one NDJSON line. A kernel event is a few hundred
// bytes; anything near the cap is hostile or corrupt.
const maxEventBytes = 1 << 20

// streamHeader is the first line of an event stream.
type streamHeader struct {
	Stream  string `json:"stream"`
	Suite   string `json:"suite"`
	Name    string `json:"name"`
	Kernels int    `json:"kernels"`
}

// kernelWire is the exact-roundtrip serialization of a KernelDesc. All
// fields are typed (uint64 seed, IEEE-754 floats through Go's shortest
// representation), so encode→decode is the identity.
type kernelWire struct {
	Name  string `json:"name"`
	Grid  [3]int `json:"grid"`
	Block [3]int `json:"block"`

	RegsPerThread     int `json:"regs"`
	SharedMemPerBlock int `json:"shared_mem"`

	Mix struct {
		GlobalLoads   int `json:"global_loads"`
		GlobalStores  int `json:"global_stores"`
		LocalLoads    int `json:"local_loads"`
		SharedLoads   int `json:"shared_loads"`
		SharedStores  int `json:"shared_stores"`
		GlobalAtomics int `json:"global_atomics"`
		Compute       int `json:"compute"`
		TensorOps     int `json:"tensor_ops"`
	} `json:"mix"`

	CoalescingFactor float64 `json:"coalescing"`
	WorkingSetBytes  int64   `json:"working_set"`
	StridedFraction  float64 `json:"strided"`
	DivergenceEff    float64 `json:"divergence"`
	BlockImbalance   float64 `json:"imbalance"`
	Seed             uint64  `json:"seed"`
}

func toWire(k *trace.KernelDesc) kernelWire {
	var w kernelWire
	w.Name = k.Name
	w.Grid = [3]int{k.Grid.X, k.Grid.Y, k.Grid.Z}
	w.Block = [3]int{k.Block.X, k.Block.Y, k.Block.Z}
	w.RegsPerThread = k.RegsPerThread
	w.SharedMemPerBlock = k.SharedMemPerBlock
	w.Mix.GlobalLoads = k.Mix.GlobalLoads
	w.Mix.GlobalStores = k.Mix.GlobalStores
	w.Mix.LocalLoads = k.Mix.LocalLoads
	w.Mix.SharedLoads = k.Mix.SharedLoads
	w.Mix.SharedStores = k.Mix.SharedStores
	w.Mix.GlobalAtomics = k.Mix.GlobalAtomics
	w.Mix.Compute = k.Mix.Compute
	w.Mix.TensorOps = k.Mix.TensorOps
	w.CoalescingFactor = k.CoalescingFactor
	w.WorkingSetBytes = k.WorkingSetBytes
	w.StridedFraction = k.StridedFraction
	w.DivergenceEff = k.DivergenceEff
	w.BlockImbalance = k.BlockImbalance
	w.Seed = k.Seed
	return w
}

func (w *kernelWire) toDesc(launch int) (trace.KernelDesc, error) {
	k := trace.KernelDesc{
		ID:                launch,
		Name:              w.Name,
		Grid:              trace.Dim3{X: w.Grid[0], Y: w.Grid[1], Z: w.Grid[2]},
		Block:             trace.Dim3{X: w.Block[0], Y: w.Block[1], Z: w.Block[2]},
		RegsPerThread:     w.RegsPerThread,
		SharedMemPerBlock: w.SharedMemPerBlock,
		CoalescingFactor:  w.CoalescingFactor,
		WorkingSetBytes:   w.WorkingSetBytes,
		StridedFraction:   w.StridedFraction,
		DivergenceEff:     w.DivergenceEff,
		BlockImbalance:    w.BlockImbalance,
		Seed:              w.Seed,
	}
	k.Mix = trace.InstrMix{
		GlobalLoads:   w.Mix.GlobalLoads,
		GlobalStores:  w.Mix.GlobalStores,
		LocalLoads:    w.Mix.LocalLoads,
		SharedLoads:   w.Mix.SharedLoads,
		SharedStores:  w.Mix.SharedStores,
		GlobalAtomics: w.Mix.GlobalAtomics,
		Compute:       w.Mix.Compute,
		TensorOps:     w.Mix.TensorOps,
	}
	return k, checkLaunch(&k)
}

// eventWire is one event line.
type eventWire struct {
	Launch int        `json:"launch"`
	Kernel kernelWire `json:"kernel"`
}

// WriteEvents serializes the workload as an NDJSON event stream: header
// line, then one event per launch in chronological order.
func WriteEvents(w io.Writer, wl *Workload) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(streamHeader{Stream: StreamSchema, Suite: wl.Suite, Name: wl.Name, Kernels: wl.N}); err != nil {
		return err
	}
	for i := 0; i < wl.N; i++ {
		k := wl.Kernel(i)
		if err := enc.Encode(eventWire{Launch: i, Kernel: toWire(&k)}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEvents reads a whole kernel-event stream into the workload it
// describes, with the hostility assumptions of the JSON loader: bounded line
// length, unknown fields and trailing data rejected, every launch checked,
// and a launch ID out of range, repeated or never delivered refused. Events
// may arrive in any order. Memory grows with the events that arrive, never
// with what the header promises. A header naming a catalogue workload gives
// the result that workload's Quirk.
func ReadEvents(r io.Reader) (*Workload, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxEventBytes)
	line := 0
	next := func() ([]byte, error) {
		for sc.Scan() {
			line++
			if b := sc.Bytes(); len(bytes.TrimSpace(b)) > 0 {
				return b, nil
			}
		}
		if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("workload: event line %d exceeds %d bytes", line+1, maxEventBytes)
		} else if err != nil {
			return nil, err
		}
		return nil, io.EOF
	}

	b, err := next()
	if err == io.EOF {
		return nil, errors.New("workload: event stream is empty")
	}
	if err != nil {
		return nil, err
	}
	var h streamHeader
	if err := decodeStrict(b, &h); err != nil {
		return nil, fmt.Errorf("workload: event-stream header: %w", err)
	}
	if h.Stream != StreamSchema {
		return nil, fmt.Errorf("workload: unsupported event stream %q (want %q)", h.Stream, StreamSchema)
	}
	if h.Kernels < 1 || h.Kernels > MaxJSONKernels {
		return nil, fmt.Errorf("workload: event stream declares %d kernels (limit %d)", h.Kernels, MaxJSONKernels)
	}
	if h.Name == "" {
		h.Name = "stream"
	}
	if h.Suite == "" {
		h.Suite = "user"
	}

	var kernels []trace.KernelDesc // in arrival order
	var seen []uint64              // bit i: launch i arrived
	for {
		b, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		var ev eventWire
		if err := decodeStrict(b, &ev); err != nil {
			return nil, fmt.Errorf("workload: event line %d: %w", line, err)
		}
		if ev.Launch < 0 || ev.Launch >= h.Kernels {
			return nil, fmt.Errorf("workload: event line %d: launch %d outside [0,%d)", line, ev.Launch, h.Kernels)
		}
		word, bit := ev.Launch/64, uint64(1)<<(ev.Launch%64)
		if word >= len(seen) {
			seen = append(seen, make([]uint64, word+1-len(seen))...)
		}
		if seen[word]&bit != 0 {
			return nil, fmt.Errorf("workload: event line %d: duplicate launch %d", line, ev.Launch)
		}
		k, err := ev.Kernel.toDesc(ev.Launch)
		if err != nil {
			return nil, fmt.Errorf("workload: event line %d: %w", line, err)
		}
		seen[word] |= bit
		kernels = append(kernels, k)
	}
	if n := h.Kernels - len(kernels); n > 0 {
		return nil, fmt.Errorf("workload: event stream ended with %d of %d launches missing", n, h.Kernels)
	}
	// Every launch arrived exactly once, so the IDs are a permutation of
	// [0,N): put each where it belongs.
	for i := range kernels {
		for kernels[i].ID != i {
			j := kernels[i].ID
			kernels[i], kernels[j] = kernels[j], kernels[i]
		}
	}
	w := fixedSeq(h.Suite, h.Name, kernels)
	if reg := Find(w.FullName()); reg != nil {
		w.Quirk = reg.Quirk
	}
	return w, nil
}

// decodeStrict unmarshals one line rejecting unknown fields and trailing
// data.
func decodeStrict(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}
