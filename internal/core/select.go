package core

import (
	"encoding/binary"

	"pka/internal/artifact"
	"pka/internal/gpu"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/workload"
)

// selectionSchema salts every selection key with the payload encoding and
// the selection semantics: bump it whenever profiler, linalg, cluster,
// classify or pks arithmetic changes a byte of a Selection, or primed stores
// keep serving the old one. TestSelectionGolden pins it beside the hashes.
const selectionSchema = "pka-selection-v1"

// Select resolves the workload's Principal Kernel Selection the way the Exec
// ladder resolves a kernel task: content key, store lookup, and on a miss —
// or an entry that does not decode into a selection fitting the request —
// pks.Select and a best-effort Put. Both paths report through
// pks.Options.Delivered, so audit and metrics do not depend on cache
// temperature. Without an artifact store it is exactly pks.Select.
func Select(cfg Config, w *workload.Workload) (*pks.Selection, error) {
	opts := cfg.PKSOptions()
	store := cfg.Exec.Selections()
	if store == nil {
		return pks.Select(cfg.Device, w, opts)
	}
	key := selectionKey(cfg.Device, w, opts)
	if raw, ok := store.Get(key); ok {
		if sel, err := pks.DecodeSelection(raw, w.FullName(), cfg.Device.Name, w.N); err == nil {
			opts.Delivered(sel)
			return sel, nil
		}
		store.Reject() // framed right, but not a selection for this request
	}
	sel, err := pks.Select(cfg.Device, w, opts)
	if err == nil {
		_ = store.Put(key, pks.EncodeSelection(sel)) // best-effort persistence
	}
	return sel, err
}

// selectionKey hashes everything a Selection is a function of: the device,
// the workload's name and launch count, the filled options, and every launch
// in order — TaskKey's kernel section plus the kernel name, which TaskKey
// rightly omits and a selection cannot (names feed NameCounts and the
// light-profile classifier). Launches stream through one buffer, so a
// million-launch workload keys in constant memory.
func selectionKey(dev gpu.Device, w *workload.Workload, opts pks.Options) string {
	h := artifact.NewKeyHash()
	h.Section([]byte(selectionSchema))
	buf := sampling.AppendDeviceSection(make([]byte, 0, 256), dev)
	h.Section(buf)
	h.Section([]byte(w.FullName()))
	h.Section(opts.AppendKey(binary.LittleEndian.AppendUint64(buf[:0], uint64(w.N))))
	for i := 0; i < w.N; i++ {
		k := w.Gen(i)
		buf = append(sampling.AppendKernelSection(buf[:0], &k), k.Name...)
		h.Section(buf)
	}
	return h.Sum()
}
