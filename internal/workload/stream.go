package workload

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"pka/internal/trace"
)

// NDJSON kernel-event streams are the wire format of streaming PKS: one
// header line naming the workload, then one event line per kernel launch.
// Unlike the generator-style workload documents in jsonio.go, events carry
// the *exact* KernelDesc of each launch — every field the content key and
// the simulator read — so a stream written by WriteEvents and replayed
// through an EventDecoder reproduces the original workload byte for byte,
// which is what lets `pka -stream` promise output identical to the batch
// run.
//
//	{"stream":"pka-kernel-events-v1","suite":"Rodinia","name":"gauss_208","kernels":208}
//	{"launch":0,"kernel":{"name":"fan1","grid":[1,1,1],"block":[208,1,1],...,"seed":1234}}
//	{"launch":1,"kernel":{...}}

// StreamSchema identifies the event-stream format; bump it when the event
// layout changes meaning.
const StreamSchema = "pka-kernel-events-v1"

// MaxEventBytes bounds one NDJSON line. A kernel event is a few hundred
// bytes; anything near the cap is hostile or corrupt.
const MaxEventBytes = 1 << 20

// StreamHeader is the first line of an event stream.
type StreamHeader struct {
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
	// The same structural bounds the JSON workload loader enforces: a
	// hostile event must not construct a launch the substrates would choke
	// on. Validate covers blocks, mixes, and the ratio fields; the grid
	// caps mirror CUDA's launch limits.
	if k.Grid.X > maxGridX || k.Grid.Y > maxGridYZ || k.Grid.Z > maxGridYZ {
		return k, fmt.Errorf("kernel %q grid %v exceeds launch limits", k.Name, k.Grid)
	}
	if blocks := int64(max64(k.Grid.X, 1)) * int64(max64(k.Grid.Y, 1)) * int64(max64(k.Grid.Z, 1)); blocks > maxGridX {
		return k, fmt.Errorf("kernel %q launches %d blocks (max %d)", k.Name, blocks, maxGridX)
	}
	for _, m := range []int{k.Mix.GlobalLoads, k.Mix.GlobalStores, k.Mix.LocalLoads,
		k.Mix.SharedLoads, k.Mix.SharedStores, k.Mix.GlobalAtomics, k.Mix.Compute, k.Mix.TensorOps} {
		if m < 0 {
			return k, fmt.Errorf("kernel %q has a negative instruction-mix count", k.Name)
		}
	}
	if k.RegsPerThread < 0 || k.SharedMemPerBlock < 0 || k.WorkingSetBytes < 0 {
		return k, fmt.Errorf("kernel %q has negative resource usage", k.Name)
	}
	if err := k.Validate(); err != nil {
		return k, err
	}
	return k, nil
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
	if err := enc.Encode(StreamHeader{Stream: StreamSchema, Suite: wl.Suite, Name: wl.Name, Kernels: wl.N}); err != nil {
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

// EventDecoder reads an NDJSON kernel-event stream with the same hostility
// assumptions as the JSON workload loader: bounded line length, unknown
// fields rejected, trailing garbage rejected, every kernel validated, and
// duplicate or out-of-range launch IDs refused. Events may arrive in any
// order; the decoder only guarantees each launch ID appears exactly once.
type EventDecoder struct {
	sc     *bufio.Scanner
	header *StreamHeader
	seen   []bool
	got    int
	line   int
}

// NewEventDecoder wraps r. Call Header first (or let Next do it), then
// Next until io.EOF.
func NewEventDecoder(r io.Reader) *EventDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), MaxEventBytes)
	return &EventDecoder{sc: sc}
}

// decodeStrict unmarshals one line rejecting unknown fields and trailing
// data.
func decodeStrict(line []byte, v any) error {
	dec := json.NewDecoder(strings.NewReader(string(line)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// Header parses (and caches) the stream header.
func (d *EventDecoder) Header() (StreamHeader, error) {
	if d.header != nil {
		return *d.header, nil
	}
	line, err := d.nextLine()
	if err != nil {
		if err == io.EOF {
			err = errors.New("workload: event stream is empty")
		}
		return StreamHeader{}, err
	}
	var h StreamHeader
	if err := decodeStrict(line, &h); err != nil {
		return StreamHeader{}, fmt.Errorf("workload: event-stream header: %w", err)
	}
	if h.Stream != StreamSchema {
		return StreamHeader{}, fmt.Errorf("workload: unsupported event stream %q (want %q)", h.Stream, StreamSchema)
	}
	if h.Kernels < 1 || h.Kernels > MaxJSONKernels {
		return StreamHeader{}, fmt.Errorf("workload: event stream declares %d kernels (limit %d)", h.Kernels, MaxJSONKernels)
	}
	if h.Name == "" {
		h.Name = "stream"
	}
	if h.Suite == "" {
		h.Suite = "user"
	}
	d.header = &h
	d.seen = make([]bool, h.Kernels)
	return h, nil
}

func (d *EventDecoder) nextLine() ([]byte, error) {
	for d.sc.Scan() {
		d.line++
		line := d.sc.Bytes()
		if len(strings.TrimSpace(string(line))) == 0 {
			continue
		}
		return line, nil
	}
	if err := d.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("workload: event line %d exceeds %d bytes", d.line+1, MaxEventBytes)
		}
		return nil, err
	}
	return nil, io.EOF
}

// Next returns the next kernel event. The returned desc has ID set to the
// launch index. At end of stream it returns io.EOF; any events the header
// promised but the stream never delivered surface from Missing.
func (d *EventDecoder) Next() (trace.KernelDesc, error) {
	if d.header == nil {
		if _, err := d.Header(); err != nil {
			return trace.KernelDesc{}, err
		}
	}
	line, err := d.nextLine()
	if err != nil {
		return trace.KernelDesc{}, err
	}
	var ev eventWire
	if err := decodeStrict(line, &ev); err != nil {
		return trace.KernelDesc{}, fmt.Errorf("workload: event line %d: %w", d.line, err)
	}
	if ev.Launch < 0 || ev.Launch >= d.header.Kernels {
		return trace.KernelDesc{}, fmt.Errorf("workload: event line %d: launch %d outside [0,%d)", d.line, ev.Launch, d.header.Kernels)
	}
	if d.seen[ev.Launch] {
		return trace.KernelDesc{}, fmt.Errorf("workload: event line %d: duplicate launch %d", d.line, ev.Launch)
	}
	k, err := ev.Kernel.toDesc(ev.Launch)
	if err != nil {
		return trace.KernelDesc{}, fmt.Errorf("workload: event line %d: %w", d.line, err)
	}
	d.seen[ev.Launch] = true
	d.got++
	return k, nil
}

// Missing returns how many launches the header declared but the stream
// never delivered. Zero after a complete stream.
func (d *EventDecoder) Missing() int {
	if d.header == nil {
		return 0
	}
	return d.header.Kernels - d.got
}

// FromKernels builds a workload over an explicit launch list — the
// materialized form an event stream decodes into. The slice is aliased,
// not copied; callers must not mutate it afterwards.
func FromKernels(suite, name string, kernels []trace.KernelDesc) (*Workload, error) {
	if len(kernels) == 0 {
		return nil, errors.New("workload: no kernels")
	}
	if suite == "" {
		suite = "user"
	}
	if name == "" {
		name = "stream"
	}
	w := New(suite, name, len(kernels), func(i int) trace.KernelDesc {
		return kernels[i]
	})
	return w, nil
}
