package sampling

import (
	"encoding/binary"
	"slices"

	"pka/internal/artifact"
	"pka/internal/gpu"
	"pka/internal/silicon"
	"pka/internal/trace"
	"pka/internal/workload"
)

// Want says what one scan of a workload folds out of its launches beside
// their instruction mass, which every scan sums.
type Want struct {
	Key     bool // the selection key, over KeyOpts (pks.Options.AppendKey's bytes)
	KeyOpts []byte
	Silicon bool // the silicon total
	Keep    bool // the launches, while their mass is within Budget (zero: DefaultFullSimBudget)
	Budget  int64
	// Bounded stops the walk once the mass passes Budget, as
	// Workload.ApproxWarpInstructions(Budget) does. The key and the silicon
	// total need every launch: ask for neither with it.
	Bounded bool
}

// Scan is what one walk over a workload's launches found.
type Scan struct {
	Key        string             // SelectionKey, when asked for
	Silicon    silicon.AppResult  // silicon.ExecuteAll over the launches, when asked for
	WarpInstrs int64              // Workload.ApproxWarpInstructions without a limit (with Budget's, when Bounded)
	Kernels    []trace.KernelDesc // Workload.Kernels(), when asked for; nil once WarpInstrs passed the budget
	Keys       []string           // Kernels[i]'s ModeFull TaskKey, beside them; nil with them
}

// keepChunk bounds what a scan allocates for the launches before any has fitted
// the budget. Workloads it can fit are short and get their slice sized once; a
// million-launch one grows it by append, up to the prefix that did fit.
const keepChunk = 256

// ScanLaunches returns what one walk over w's launches folds out for want,
// remembered on w (workload.Workload.Recall): a workload scanned before for the
// same device and want is not walked again. The memo key is the device
// section, every Want field and — through Recall — w's launch count and full
// name; the launch generator is fixed when w is built, so a hit is the walk's
// answer bit for bit. A failed scan is not remembered. The Scan, Kernels and
// Keys included, is shared by every caller that asks the same question: read
// it, never write it.
func ScanLaunches(dev gpu.Device, w *workload.Workload, want Want) (Scan, error) {
	what := []byte("sampling.scan")
	for _, b := range [...]bool{want.Key, want.Silicon, want.Keep, want.Bounded} {
		what = appendBool(what, b)
	}
	what = binary.LittleEndian.AppendUint64(what, uint64(want.Budget))
	what = append(appendInt(what, len(want.KeyOpts)), want.KeyOpts...)
	key := string(appendDeviceSection(what, dev))
	if sc, ok := w.Recall(key); ok {
		return sc.(Scan), nil
	}
	sc, err := scanLaunches(dev, w, want)
	if err != nil {
		return Scan{}, err
	}
	sc.Kernels = slices.Clip(sc.Kernels) // a caller's append copies, never writes the shared array
	sc.Keys = slices.Clip(sc.Keys)
	w.Remember(key, sc)
	return sc, nil
}

// scanLaunches walks w once — one generated launch at a time, into one reused
// KernelDesc — and folds everything want asks for out of that stream, each fold
// as its stand-alone walk does it: the key hashes SelectionKey's sections, the
// silicon total is silicon.ExecuteAll pulling the launches through the scan (so
// its error names the same launch), the kept launches carry their IDs and
// their ModeFull TaskKeys and are dropped the moment the running mass passes
// the budget. Both keys hash the one kernel section a launch is encoded to.
func scanLaunches(dev gpu.Device, w *workload.Workload, want Want) (sc Scan, err error) {
	var h artifact.KeyHash
	buf := make([]byte, 0, 256)
	if want.Key {
		h = artifact.NewKeyHash()
		h.Section([]byte(selectionSchema))
		h.Section(appendDeviceSection(buf, dev))
		h.Section([]byte(w.FullName()))
		h.Section(append(appendInt(buf[:0], w.N), want.KeyOpts...))
	}
	budget := want.Budget
	if budget <= 0 {
		budget = DefaultFullSimBudget
	}
	var full keyer
	if want.Keep {
		sc.Kernels = make([]trace.KernelDesc, 0, min(w.N, keepChunk))
		sc.Keys = make([]string, 0, cap(sc.Kernels))
		full = newKeyer(dev, KernelTask{Mode: ModeFull})
	}
	var k trace.KernelDesc
	i := 0
	next := func() *trace.KernelDesc {
		if i >= w.N {
			return nil
		}
		k = w.Kernel(i)
		i++
		sc.WarpInstrs += k.VoltaWarpInstructions()
		if sc.WarpInstrs > budget {
			sc.Kernels, sc.Keys = nil, nil
		}
		if want.Key || sc.Kernels != nil {
			buf = appendKernelSection(buf[:0], &k)
		}
		if sc.Kernels != nil {
			sc.Kernels = append(sc.Kernels, k)
			sc.Keys = append(sc.Keys, full.key(buf))
		}
		if want.Key {
			h.Section(append(buf, k.Name...))
		}
		return &k
	}
	if want.Silicon {
		sc.Silicon, err = silicon.ExecuteAll(dev, next)
	} else {
		for next() != nil && !(want.Bounded && sc.WarpInstrs > budget) {
		}
	}
	if want.Key {
		sc.Key = h.Sum()
	}
	return sc, err
}

// recall returns w's memo entry what (Workload.Recall), derived and
// remembered where w (nil for none) does not hold it; what names everything
// derive reads but w's launches. The entry is shared: read it, never write it.
func recall[T any](w *workload.Workload, what []byte, derive func() T) T {
	if w == nil {
		return derive()
	}
	v, ok := w.Recall(string(what))
	if !ok {
		v = derive()
		w.Remember(string(what), v)
	}
	return v.(T)
}
