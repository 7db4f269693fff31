package sampling

import (
	"sync"
	"sync/atomic"

	"pka/internal/artifact"
)

// batchSchema salts every pack key with the pack layout; the task keys hashed
// after it carry every other invalidation.
const batchSchema = "pka-kernel-batch-v1"

// batch memoises one RunKernels call as a whole. A warm study asks the store
// for every outcome of a batch, in an order fixed before the first task runs,
// so beside the per-key entries the store holds the batch's pack — its
// EncodeOutcome payloads back to back, positional — under a key over the
// ordered task keys: one read instead of one per kernel. A pack only repeats
// bytes the per-key entries hold. A nil *batch is valid and holds nothing.
type batch struct {
	packs *artifact.Store
	keys  []string

	// The pack is read at most once, by the first task the mem tier and the
	// bank could not serve: a batch the mem tier serves whole never asks.
	once    sync.Once
	outs    []KernelOutcome // the pack, decoded; nil when the store has none
	pastMem atomic.Bool     // a task got past the mem tier (run sets it)
}

// newBatch returns the pack handle of the batch with these task keys, or nil
// where nothing is packed: without a store, and for a single task (its
// per-key entry again).
func (e *Exec) newBatch(keys []string) *batch {
	if e == nil || e.packs == nil || len(keys) < 2 {
		return nil
	}
	return &batch{packs: e.packs, keys: keys}
}

// key derives the pack's content key.
func (b *batch) key() string {
	h := artifact.NewKeyHash()
	h.Section([]byte(batchSchema))
	buf := make([]byte, 0, 64)
	for _, k := range b.keys {
		buf = append(buf[:0], k...)
		h.Section(buf)
	}
	return h.Sum()
}

// outcome returns task i's outcome from the batch's pack, loading it on first
// call. A pack that is not exactly this batch's outcomes is counted corrupt
// and treated as absent; save then overwrites it.
func (b *batch) outcome(i int) (oc KernelOutcome, ok bool) {
	if b == nil {
		return oc, false
	}
	b.once.Do(func() {
		if raw, ok := b.packs.Get(b.key()); ok {
			if b.outs = decodePack(raw); len(b.outs) != len(b.keys) {
				b.outs = nil
				b.packs.Reject()
			}
		}
	})
	if b.outs == nil {
		return oc, false
	}
	return b.outs[i], true
}

// save, called once every task is done, stores the batch's outcomes as its
// pack unless that was loaded or the mem tier served every task. Idempotent.
func (b *batch) save(outs []KernelOutcome) {
	if b != nil && b.outs == nil && b.pastMem.Load() {
		_ = b.packs.Put(b.key(), encodePack(outs)) // best-effort, like persist
	}
}

// encodePack lays outcomes out back to back in EncodeOutcome's layout.
func encodePack(outs []KernelOutcome) []byte {
	raw := make([]byte, 0, len(outs)*outcomeSize)
	for _, oc := range outs {
		raw = append(raw, EncodeOutcome(oc)...)
	}
	return raw
}

// decodePack parses encodePack's layout; anything else decodes to nil.
func decodePack(raw []byte) []KernelOutcome {
	if len(raw)%outcomeSize != 0 {
		return nil
	}
	outs := make([]KernelOutcome, len(raw)/outcomeSize)
	for i := range outs {
		var err error
		if outs[i], err = DecodeOutcome(raw[i*outcomeSize : (i+1)*outcomeSize]); err != nil {
			return nil
		}
	}
	return outs
}
