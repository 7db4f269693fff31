package sampling

import (
	"crypto/sha256"
	"encoding/binary"

	"pka/internal/artifact"
	"pka/internal/gpu"
)

// packSchema salts every pack key with the pack layout; the sections hashed
// after it carry every other invalidation.
const packSchema = "pka-evaluation-pack-v1"

// Pack memoises one evaluation whole (core.Plan.Evaluate's, or
// core.RunSegments'): the encoded selection, a digest of every task key the
// evaluation resolves, and every pass's EncodeOutcome payloads back to back,
// in pass order, under a key over the evaluation's inputs. A warm study reads
// it in place of the selection, a pack per pass of two tasks or more and an
// entry per one-task pass. It only repeats bytes the selection and per-key
// entries hold. A nil *Pack is valid and holds nothing.
type Pack struct {
	store *artifact.Store
	key   string

	// What the store held, while it is trusted: Refuse clears found.
	found bool
	sel   []byte
	outs  []KernelOutcome

	// The digest as read, then as Bind takes it; and for Save, where the pack
	// did not serve, every outcome RunKernels resolved.
	digest string
	got    []KernelOutcome
}

// OpenPack reads the pack of an evaluation on dev of subject (the workload's
// full name, or the names a shared selection covers) whose selection section
// is sel — the selection's store key, the bytes of a selection the caller
// passes, nil for none — whose passes issue tasks in order, and whose scan
// derived keys (a Scan's Keys, nil for none). That is a warm evaluation's one
// store read; without a store it returns nil. A pack the layout refuses is
// counted corrupt and set aside. TaskKeys are fixed-width hex, so keys and
// Bind's digest hash them back to back, one section: a fraction of the cost
// of a section each.
func (e *Exec) OpenPack(dev gpu.Device, subject string, sel []byte, tasks []KernelTask, keys []string) *Pack {
	if e == nil || e.packs == nil {
		return nil
	}
	h := artifact.NewKeyHash()
	h.Section([]byte(packSchema))
	buf := appendDeviceSection(make([]byte, 0, 256), dev)
	h.Section(buf)
	h.Section([]byte(subject))
	h.Section(sel)
	for _, t := range tasks {
		h.Section(appendTaskSection(buf[:0], t))
	}
	buf = make([]byte, 0, 2*sha256.Size*len(keys)) // hex TaskKeys
	for _, k := range keys {
		buf = append(buf, k...)
	}
	h.Section(buf)
	p := &Pack{store: e.packs, key: h.Sum()}
	if raw, ok := e.packs.Get(p.key); ok {
		if p.sel, p.digest, p.outs, p.found = decodePack(raw); !p.found {
			e.packs.Reject()
		}
	}
	return p
}

// Key returns the key the pack is read and written under.
func (p *Pack) Key() string { return p.key }

// Selection returns the selection section the pack holds, nil when there is
// no pack to trust.
func (p *Pack) Selection() []byte {
	if p == nil || !p.found {
		return nil
	}
	return p.sel
}

// Refuse counts the pack corrupt and sets it aside: the evaluation resolves as
// if the store held none, and Save overwrites it. Idempotent.
func (p *Pack) Refuse() {
	if p != nil && p.found {
		p.found, p.sel, p.outs = false, nil, nil
		p.store.Reject()
	}
}

// Bind lays the evaluation's passes out in the pack, in the order they will
// run: each pass gets the TaskKeys it does not carry, the pack and its first
// outcome's place in it. The pack serves only if it holds one outcome per task
// under the digest of every key; anything else is refused.
func (p *Pack) Bind(dev gpu.Device, passes ...*RiderPass) {
	if p == nil {
		return
	}
	n := 0
	for _, rp := range passes {
		if len(rp.Keys) != len(rp.Kernels) {
			rp.Keys = taskKeys(dev, rp.Task, rp.Kernels)
		}
		rp.Pack, rp.At = p, n
		n += len(rp.Keys)
	}
	keys := make([]byte, 0, 2*sha256.Size*n)
	for _, rp := range passes {
		for _, k := range rp.Keys {
			keys = append(keys, k...)
		}
	}
	sum := sha256.Sum256(keys)
	if p.found && (len(p.outs) != n || p.digest != string(sum[:])) {
		p.Refuse()
	}
	p.digest = string(sum[:])
	if !p.found {
		p.got = make([]KernelOutcome, n)
	}
}

// serves reports whether the pack holds the bound passes' outcomes.
func (p *Pack) serves() bool { return p != nil && p.found }

// Save, called once every pass is done, stores the evaluation's pack with sel
// as its selection section, unless the pack served. That includes an
// evaluation the mem tier served whole: the next process has no mem tier.
func (p *Pack) Save(sel []byte) {
	if p != nil && p.got != nil {
		_ = p.store.Put(p.key, encodePack(sel, p.digest, p.got)) // best-effort, like persist
	}
}

// encodePack lays a pack out: the selection's length as a little-endian
// 64-bit word, the selection, the digest, then the outcomes back to back in
// EncodeOutcome's layout.
func encodePack(sel []byte, digest string, outs []KernelOutcome) []byte {
	raw := make([]byte, 0, 8+len(sel)+len(digest)+len(outs)*outcomeSize)
	raw = binary.LittleEndian.AppendUint64(raw, uint64(len(sel)))
	raw = append(append(raw, sel...), digest...)
	for _, oc := range outs {
		raw = append(raw, EncodeOutcome(oc)...)
	}
	return raw
}

// decodePack parses encodePack's layout; ok is false for anything else.
func decodePack(raw []byte) (sel []byte, digest string, outs []KernelOutcome, ok bool) {
	if len(raw) < 8 {
		return nil, "", nil, false
	}
	n, rest := binary.LittleEndian.Uint64(raw), raw[8:]
	if n > uint64(len(rest)) || len(rest)-int(n) < sha256.Size || (len(rest)-int(n)-sha256.Size)%outcomeSize != 0 {
		return nil, "", nil, false
	}
	sel, digest, rest = rest[:n:n], string(rest[n:int(n)+sha256.Size]), rest[int(n)+sha256.Size:]
	outs = make([]KernelOutcome, len(rest)/outcomeSize)
	for i := range outs {
		var err error
		if outs[i], err = DecodeOutcome(rest[i*outcomeSize : (i+1)*outcomeSize]); err != nil {
			return nil, "", nil, false
		}
	}
	return sel, digest, outs, true
}
