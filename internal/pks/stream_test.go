package pks

import (
	"reflect"
	"testing"

	"pka/internal/gpu"
	"pka/internal/stats"
	"pka/internal/workload"
)

// pushAll streams every launch of w into s, shuffling arrival order within
// windows of the given size (shuffle=0 streams strictly in order).
func pushAll(t *testing.T, s *Stream, w *workload.Workload, shuffle int, seed uint64) {
	t.Helper()
	order := make([]int, w.N)
	for i := range order {
		order[i] = i
	}
	if shuffle > 1 {
		rng := stats.NewRNG(seed)
		for base := 0; base < w.N; base += shuffle {
			end := base + shuffle
			if end > w.N {
				end = w.N
			}
			for i := end - 1; i > base; i-- {
				j := base + rng.Intn(i-base+1)
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for _, i := range order {
		if err := s.Push(w.Kernel(i)); err != nil {
			t.Fatalf("push launch %d: %v", i, err)
		}
	}
}

// TestStreamMatchesSelect pins the reconciliation invariant at the
// selection layer: whatever arrival order the stream saw within its
// window, Finalize returns a Selection deeply equal to batch Select —
// including the two-level classifier path.
func TestStreamMatchesSelect(t *testing.T) {
	dev := gpu.VoltaV100()
	cases := []struct {
		workload string
		opts     Options
	}{
		// Small app, fully detailed.
		{"Rodinia/gauss_208", Options{}},
		// Two-level: detailed prefix + classifier-mapped light tail.
		{"Polybench/fdtd2d", Options{MaxDetailed: 300}},
	}
	for _, tc := range cases {
		w := workload.Find(tc.workload)
		if w == nil {
			t.Fatalf("workload %s not registered", tc.workload)
		}
		want, err := Select(dev, w, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		arrivals := []struct {
			name    string
			shuffle int
		}{
			{"in-order", 0},
			{"shuffled-window", 32},
		}
		for _, a := range arrivals {
			s, err := NewStream(dev, w.Suite, w.Name, w.N, StreamOptions{Select: tc.opts})
			if err != nil {
				t.Fatal(err)
			}
			pushAll(t, s, w, a.shuffle, 7)
			got, err := s.Finalize()
			if err != nil {
				t.Fatalf("%s/%s finalize: %v", tc.workload, a.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: streamed selection differs from batch\ngot:  %+v\nwant: %+v",
					tc.workload, a.name, got, want)
			}
		}
	}
}

// TestStreamRejectsBadEvents pins the stream's event discipline: duplicate
// launches, out-of-window arrivals, and incomplete streams all error, and
// an error poisons the stream.
func TestStreamRejectsBadEvents(t *testing.T) {
	dev := gpu.VoltaV100()
	w := workload.Find("Rodinia/gauss_208")
	s, err := NewStream(dev, w.Suite, w.Name, w.N, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Push(w.Kernel(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(w.Kernel(0)); err == nil {
		t.Fatal("duplicate launch accepted")
	}
	if err := s.Push(w.Kernel(1)); err == nil {
		t.Fatal("poisoned stream accepted another event")
	}
	if _, err := s.Finalize(); err == nil {
		t.Fatal("poisoned stream finalized")
	}

	// A stream long enough that the first launch past the window is in range.
	s2, _ := NewStream(dev, w.Suite, w.Name, streamWindow+1, StreamOptions{})
	k := w.Kernel(0)
	k.ID = streamWindow
	if err := s2.Push(k); err == nil {
		t.Fatal("event beyond reorder window accepted")
	}
	s3, _ := NewStream(dev, w.Suite, w.Name, w.N, StreamOptions{})
	if err := s3.Push(w.Kernel(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Finalize(); err == nil {
		t.Fatal("incomplete stream finalized")
	}
}
