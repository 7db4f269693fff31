package workload

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

const streamHeaderSeed = `{"stream":"pka-kernel-events-v1","suite":"mine","name":"pipe","kernels":2}`

const streamEventSeed = `{"launch":0,"kernel":{"name":"map","grid":[640,1,1],"block":[256,1,1],` +
	`"regs":32,"shared_mem":0,"mix":{"global_loads":4,"global_stores":0,"local_loads":0,` +
	`"shared_loads":0,"shared_stores":0,"global_atomics":0,"compute":150,"tensor_ops":0},` +
	`"coalescing":4,"working_set":8388608,"strided":0.95,"divergence":1,"imbalance":0,"seed":7}}`

// fuzz seed corpus: one valid stream and the malformed shapes the event
// decoder must reject with an error — never a panic, never an unbounded
// allocation, never a silently-accepted bad launch.
var streamSeeds = []string{
	// Valid two-event stream.
	streamHeaderSeed + "\n" + streamEventSeed + "\n" +
		strings.Replace(streamEventSeed, `"launch":0`, `"launch":1`, 1) + "\n",
	// Duplicate launch id.
	streamHeaderSeed + "\n" + streamEventSeed + "\n" + streamEventSeed + "\n",
	// Launch id outside the declared range.
	streamHeaderSeed + "\n" + strings.Replace(streamEventSeed, `"launch":0`, `"launch":9`, 1) + "\n",
	streamHeaderSeed + "\n" + strings.Replace(streamEventSeed, `"launch":0`, `"launch":-1`, 1) + "\n",
	// Malformed dims.
	streamHeaderSeed + "\n" + strings.Replace(streamEventSeed, `"grid":[640,1,1]`, `"grid":[-4,1,1]`, 1) + "\n",
	streamHeaderSeed + "\n" + strings.Replace(streamEventSeed, `"block":[256,1,1]`, `"block":[2048,1,1]`, 1) + "\n",
	streamHeaderSeed + "\n" + strings.Replace(streamEventSeed, `"grid":[640,1,1]`, `"grid":[2000000000,60000,60000]`, 1) + "\n",
	// Negative instruction mix.
	streamHeaderSeed + "\n" + strings.Replace(streamEventSeed, `"global_loads":4`, `"global_loads":-4`, 1) + "\n",
	// Truncated event line.
	streamHeaderSeed + "\n" + streamEventSeed[:len(streamEventSeed)/2] + "\n",
	// Header problems: wrong schema, absurd kernel count, zero kernels,
	// unknown fields, trailing garbage, missing header.
	strings.Replace(streamHeaderSeed, "events-v1", "events-v9", 1) + "\n" + streamEventSeed + "\n",
	strings.Replace(streamHeaderSeed, `"kernels":2`, `"kernels":2000000000`, 1) + "\n",
	strings.Replace(streamHeaderSeed, `"kernels":2`, `"kernels":0`, 1) + "\n",
	strings.Replace(streamHeaderSeed, `"suite":"mine"`, `"suite":"mine","extra":1`, 1) + "\n",
	streamHeaderSeed + ` {"junk":1}` + "\n",
	streamEventSeed + "\n",
	// Structural junk.
	"", "{", "[]\n", "\n\n\n",
}

// loadStream reads data through the workload loader and checks what it
// accepts: a bounded launch count, and every launch valid and stamped with
// its index.
func loadStream(t *testing.T, data []byte) (*Workload, error) {
	t.Helper()
	w, err := Load(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if w.N < 1 || w.N > MaxJSONKernels {
		t.Fatalf("accepted workload with out-of-bounds kernel count %d", w.N)
	}
	for i := 0; i < w.N; i++ {
		k := w.Kernel(i)
		if err := k.Validate(); err != nil {
			t.Fatalf("accepted launch %d fails validation: %v", i, err)
		}
	}
	return w, nil
}

// FuzzStreamEvents fuzzes the NDJSON kernel-event decoder behind the
// workload loader's sniffing: any byte input must either load into a
// bounded, fully-validated workload or return an error — mirroring the
// FuzzLoadWorkloadJSON hardening contract.
func FuzzStreamEvents(f *testing.F) {
	for _, s := range streamSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = loadStream(t, data)
	})
}

// TestStreamSeedCorpus pins which seeds must decode cleanly and which must
// error.
func TestStreamSeedCorpus(t *testing.T) {
	for i, s := range streamSeeds {
		w, err := loadStream(t, []byte(s))
		if i == 0 {
			if err != nil {
				t.Fatalf("valid seed rejected: %v", err)
			}
			if w.N != 2 || w.Suite != "mine" || w.Name != "pipe" {
				t.Fatalf("valid seed decoded as %s/%s with %d events", w.Suite, w.Name, w.N)
			}
			continue
		}
		if err == nil {
			t.Errorf("malformed seed %d accepted:\n%s", i, s)
		}
	}
}

// TestStreamRoundTrip pins the core streaming invariant: WriteEvents
// followed by Load reproduces every KernelDesc exactly, so a replayed
// stream is indistinguishable from the generator workload.
func TestStreamRoundTrip(t *testing.T) {
	src := Find("Rodinia/gauss_208")
	if src == nil {
		t.Fatal("Rodinia/gauss_208 not registered")
	}
	var buf bytes.Buffer
	if err := WriteEvents(&buf, src); err != nil {
		t.Fatal(err)
	}
	w, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if w.Suite != src.Suite || w.Name != src.Name || w.N != src.N || w.Quirk != src.Quirk {
		t.Fatalf("loaded %s (N=%d, quirk %q), want %s (N=%d, quirk %q)", w.FullName(), w.N, w.Quirk, src.FullName(), src.N, src.Quirk)
	}
	for i := 0; i < w.N; i++ {
		if got, want := w.Kernel(i), src.Kernel(i); got != want {
			t.Fatalf("launch %d round-tripped as %+v, want %+v", i, got, want)
		}
	}
}

// events returns w's event stream with its event lines (the header stays
// first) passed through edit.
func events(t *testing.T, w *Workload, edit func(events [][]byte) [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteEvents(&buf, w); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	return bytes.Join(append(lines[:1:1], edit(slices.Clone(lines[1:1+w.N]))...), nil)
}

// TestStreamAcceptsReversedEvents: arrival order is free. fdtd2d's 1 500
// events, last launch first, load as the workload itself; so does a
// catalogue workload with a quirk, which the loaded one keeps.
func TestStreamAcceptsReversedEvents(t *testing.T) {
	reversed := func(ev [][]byte) [][]byte { slices.Reverse(ev); return ev }
	for _, name := range []string{"Polybench/fdtd2d", "Rodinia/myocyte"} {
		src := Find(name)
		w, err := Load(bytes.NewReader(events(t, src, reversed)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.FullName() != name || w.N != src.N || w.Quirk != src.Quirk {
			t.Fatalf("%s: loaded %s (N=%d, quirk %q)", name, w.FullName(), w.N, w.Quirk)
		}
		for i := 0; i < w.N; i++ {
			if got, want := w.Kernel(i), src.Kernel(i); got != want {
				t.Fatalf("%s: launch %d loaded as %+v, want %+v", name, i, got, want)
			}
		}
	}
}

// TestStreamRejectsBadEvents: a stream that repeats a launch or leaves one
// out is an error, not a workload.
func TestStreamRejectsBadEvents(t *testing.T) {
	w := Find("Rodinia/gauss_208")
	for _, tc := range []struct {
		label, want string
		edit        func([][]byte) [][]byte
	}{
		{"duplicate launch", "duplicate launch 0", func(ev [][]byte) [][]byte { return append(ev[:1:1], ev...) }},
		{"missing launch", fmt.Sprintf("1 of %d launches missing", w.N), func(ev [][]byte) [][]byte { return ev[1:] }},
		{"missing last launch", fmt.Sprintf("1 of %d launches missing", w.N), func(ev [][]byte) [][]byte { return ev[:len(ev)-1] }},
	} {
		_, err := Load(bytes.NewReader(events(t, w, tc.edit)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.label, err, tc.want)
		}
	}
}

// TestStreamHeaderAllocatesNothing: what a header promises costs nothing
// until the events arrive. A header declaring the most launches a stream may
// have, with no events behind it, errors without allocating for them.
func TestStreamHeaderAllocatesNothing(t *testing.T) {
	header := fmt.Sprintf(`{"stream":%q,"suite":"a","name":"b","kernels":%d}`, StreamSchema, MaxJSONKernels) + "\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(strings.NewReader(header))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "launches missing") {
		t.Fatalf("header-only stream: err %v, want a missing-launches error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Errorf("header-only stream allocated %d bytes, want < 8 MiB", got)
	}
}

// TestLoadSniffsFormat: Load reads a document and an event stream alike,
// blank lines ahead of either, and a document whose first line is too long
// to be a header.
func TestLoadSniffsFormat(t *testing.T) {
	doc, err := FromJSON(strings.NewReader(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	var ev bytes.Buffer
	if err := WriteEvents(&ev, doc); err != nil {
		t.Fatal(err)
	}
	long := strings.Replace(validDoc, "{", "{"+strings.Repeat(" ", 8192), 1)
	for label, in := range map[string]string{
		"document":          validDoc,
		"one-line document": strings.ReplaceAll(validDoc, "\n", ""),
		"long first line":   strings.ReplaceAll(long, "\n", ""),
		"events":            ev.String(),
		"blank lines":       "\n \n" + ev.String(),
	} {
		w, err := Load(strings.NewReader(in))
		if err != nil {
			t.Errorf("%s: %v", label, err)
			continue
		}
		if w.FullName() != doc.FullName() || w.N != doc.N {
			t.Errorf("%s: loaded %s (N=%d), want %s (N=%d)", label, w.FullName(), w.N, doc.FullName(), doc.N)
			continue
		}
		for i := 0; i < w.N; i++ {
			if got, want := w.Kernel(i), doc.Kernel(i); got != want {
				t.Fatalf("%s: launch %d loaded as %+v, want %+v", label, i, got, want)
			}
		}
	}
}
