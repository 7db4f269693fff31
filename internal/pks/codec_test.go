package pks

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"pka/internal/workload"
)

// codecWorkloads is bench/'s simList and selectList: 1 to 29 000 launches,
// K from 1 to 20, every suite.
var codecWorkloads = []string{
	"Rodinia/hots_1024", "Rodinia/lud_i", "DeepBench/gemm_train_4", "Parboil/bfs",
	"Cutlass/1536x256x512_wgemm", "Rodinia/kmeans_819k", "Rodinia/dwt2d_rgb", "MLPerf/3dunet_inf",
	"MLPerf/resnet50_64b_inf", "MLPerf/resnet50_128b_inf", "MLPerf/resnet50_256b_inf",
	"Polybench/gramschmidt", "Polybench/fdtd2d",
}

// TestSelectionCodecRoundTrip: encode → decode is the identity on whole
// Selections, two-level fields and ablation outputs included, and encoding is
// canonical (NameCounts in sorted order, so equal selections encode equal).
func TestSelectionCodecRoundTrip(t *testing.T) {
	variants := []Options{
		{},
		{TargetErrorPct: 0.5},
		{MaxDetailed: 1000}, // two-level: MappedCount, ClassifierAccuracy
		{DisablePCA: true, Representative: RepClusterCenter},
	}
	names := codecWorkloads
	if testing.Short() {
		names = names[:8]
	}
	twoLevel := 0
	for _, name := range names {
		w := workload.Find(name)
		if w == nil {
			t.Fatalf("workload %s missing", name)
		}
		for _, opts := range variants {
			sel, err := Select(dev(), w, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opts, err)
			}
			raw := EncodeSelection(sel)
			got, err := DecodeSelection(raw, w.FullName(), dev().Name, w.N)
			if err != nil {
				t.Fatalf("%s %+v: decode: %v", name, opts, err)
			}
			if !reflect.DeepEqual(got, sel) {
				t.Fatalf("%s %+v: round trip changed the selection\n got %+v\nwant %+v", name, opts, got, sel)
			}
			if !bytes.Equal(EncodeSelection(got), raw) {
				t.Fatalf("%s %+v: re-encoding differs", name, opts)
			}
			if sel.TwoLevel {
				twoLevel++
			}
		}
	}
	if twoLevel == 0 {
		t.Error("no two-level selection went through the codec")
	}
}

// encodedSelections are three real payloads: one group, several groups, and
// a two-level selection.
func encodedSelections(t testing.TB) (raws [][]byte, ws []*workload.Workload) {
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"Rodinia/gauss_208", Options{}},
		{"Polybench/fdtd2d", Options{TargetErrorPct: 0.5}},
		{"Rodinia/lud_i", Options{MaxDetailed: 40}},
	} {
		w := workload.Find(c.name)
		sel, err := Select(dev(), w, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		raws, ws = append(raws, EncodeSelection(sel)), append(ws, w)
		if c.opts.MaxDetailed > 0 && !sel.TwoLevel {
			t.Fatalf("%s: MaxDetailed %d did not force two-level selection", c.name, c.opts.MaxDetailed)
		}
	}
	return raws, ws
}

// TestDecodeSelectionRejects: every strict prefix, any trailing byte, and a
// well-formed payload for another request are errors, never a Selection.
func TestDecodeSelectionRejects(t *testing.T) {
	raws, ws := encodedSelections(t)
	for i, raw := range raws {
		w := ws[i]
		for n := 0; n < len(raw); n++ {
			if _, err := DecodeSelection(raw[:n], w.FullName(), dev().Name, w.N); err == nil {
				t.Fatalf("%s: decoded a %d-byte prefix of %d bytes", w.FullName(), n, len(raw))
			}
		}
		if _, err := DecodeSelection(append(raw[:len(raw):len(raw)], 0), w.FullName(), dev().Name, w.N); err == nil {
			t.Errorf("%s: decoded a payload with a trailing byte", w.FullName())
		}
		for what, err := range map[string]error{
			"workload": decodeErr(raw, "Other/"+w.Name, dev().Name, w.N),
			"device":   decodeErr(raw, w.FullName(), "Other GPU", w.N),
			"launches": decodeErr(raw, w.FullName(), dev().Name, w.N+1),
		} {
			if err == nil {
				t.Errorf("%s: decoded for a different %s", w.FullName(), what)
			}
		}
	}
}

func decodeErr(raw []byte, workload, device string, n int) error {
	_, err := DecodeSelection(raw, workload, device, n)
	return err
}

// TestCheckForRejectsMisfits: the guard names each way a selection can fail
// to fit a workload before anything indexes a launch with it.
func TestCheckForRejectsMisfits(t *testing.T) {
	w := workload.Find("Polybench/fdtd2d")
	sel, err := Select(dev(), w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sel.CheckFor(w.N); err != nil {
		t.Fatalf("a fresh selection does not fit its own workload: %v", err)
	}
	for what, mutate := range map[string]func(s *Selection){
		"rep past the end":  func(s *Selection) { s.Groups[0].RepIndex = w.N },
		"negative rep":      func(s *Selection) { s.Groups[0].RepIndex = -1 },
		"K off":             func(s *Selection) { s.K++ },
		"no groups":         func(s *Selection) { s.K, s.Groups = 0, nil },
		"count off":         func(s *Selection) { s.Groups[0].DetailedCount++ },
		"negative count":    func(s *Selection) { s.Groups[0].DetailedCount -= w.N; s.Groups[0].MappedCount += w.N },
		"total kernels off": func(s *Selection) { s.TotalKernels-- },
	} {
		bad := *sel
		bad.Groups = append([]Group(nil), sel.Groups...)
		mutate(&bad)
		if err := bad.CheckFor(w.N); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
}

// FuzzDecodeSelection: arbitrary bytes never panic the decoder, never make
// it allocate beyond a small multiple of the input, and whatever decodes
// re-encodes to a payload that decodes to the same selection.
func FuzzDecodeSelection(f *testing.F) {
	raws, ws := encodedSelections(f)
	for _, raw := range raws {
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:len(raw)-1])
	}
	w := ws[0]
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sel, _ := DecodeSelection(b, w.FullName(), dev().Name, w.N)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 16*uint64(len(b))+1<<16 {
			t.Fatalf("%d input bytes cost %d allocated bytes", len(b), got)
		}
		if sel == nil {
			return
		}
		// Bytes, not DeepEqual: a fuzzed float may be a NaN.
		raw := EncodeSelection(sel)
		again, err := DecodeSelection(raw, w.FullName(), dev().Name, w.N)
		if err != nil || !bytes.Equal(EncodeSelection(again), raw) {
			t.Fatalf("decoded selection does not survive a round trip: %v", err)
		}
	})
}
