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
	sel, _, err := selectKeyed(cfg, w, "", nil)
	return sel, err
}

// selectKeyed is Select with the workload's selection key already derived by
// a scan that had other uses for the walk ("" derives it here), reading the
// calling evaluation's pack (nil for none) first: a selection the pack holds
// that fits the request is delivered as a store hit, and one that does not
// refuses the pack. It also returns the selection's encoding where it has one
// in hand (from the pack, the store or its own Put), for the pack to hold.
func selectKeyed(cfg Config, w *workload.Workload, key string, pack *sampling.Pack) (*pks.Selection, []byte, error) {
	opts, store := cfg.PKSOptions(), cfg.Exec.Selections()
	if raw := pack.Selection(); raw != nil {
		if sel, err := pks.DecodeSelection(raw, w.FullName(), cfg.Device.Name, w.N); err == nil {
			opts.Delivered(sel)
			return sel, raw, nil
		}
		pack.Refuse()
	}
	if store == nil {
		sel, err := pks.Select(cfg.Device, w, opts)
		return sel, nil, err
	}
	if key == "" {
		key = sampling.SelectionKey(cfg.Device, w, opts.AppendKey(nil))
	}
	if raw, ok := store.Get(key); ok {
		if sel, err := pks.DecodeSelection(raw, w.FullName(), cfg.Device.Name, w.N); err == nil {
			opts.Delivered(sel)
			return sel, raw, nil
		}
		store.Reject() // framed right, but not a selection for this request
	}
	sel, err := pks.Select(cfg.Device, w, opts)
	if err != nil {
		return nil, nil, err
	}
	raw := pks.EncodeSelection(sel)
	_ = store.Put(key, raw) // best-effort persistence
	return sel, raw, nil
}
