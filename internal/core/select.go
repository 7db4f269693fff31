package core

import (
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/workload"
)

// Select resolves the workload's Principal Kernel Selection the way the Exec
// ladder resolves a kernel task: content key, store lookup, and on a miss —
// or an entry that does not decode into a selection fitting the request —
// pks.Select and a best-effort Put. Both paths report through
// pks.Options.Delivered, so audit and metrics do not depend on cache
// temperature. Without an artifact store it is exactly pks.Select.
func Select(cfg Config, w *workload.Workload) (*pks.Selection, error) {
	return selectKeyed(cfg, w, "")
}

// selectKeyed is Select with the workload's selection key already derived by
// a scan that had other uses for the walk; "" derives it here.
func selectKeyed(cfg Config, w *workload.Workload, key string) (*pks.Selection, error) {
	opts, store := cfg.PKSOptions(), cfg.Exec.Selections()
	if store == nil {
		return pks.Select(cfg.Device, w, opts)
	}
	if key == "" {
		key = sampling.SelectionKey(cfg.Device, w, opts.AppendKey(nil))
	}
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
