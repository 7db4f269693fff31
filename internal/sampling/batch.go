package sampling

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sync"

	"pka/internal/artifact"
	"pka/internal/gpu"
	"pka/internal/trace"
	"pka/internal/workload"
)

// RiderPass is one pass an evaluation will make: the task spec it will issue,
// the launches it will issue it for, their TaskKeys under that spec where the
// caller holds them (a Scan's Keys; nil derives them), the observe-only
// wiring its task for launch i will carry (nil for none), and — set by
// Pack.Bind — the evaluation's pack and the place of the pass's first outcome
// in it.
type RiderPass struct {
	Task    KernelTask
	Kernels []trace.KernelDesc
	Keys    []string
	Obs     func(i int) TaskObs
	Pack    *Pack
	At      int
}

// packSchema salts every pack key with the pack layout; the sections hashed
// after it carry every other invalidation.
const packSchema = "pka-evaluation-pack-v1"

// Pack is one evaluation (core.Plan.Evaluate's, or core.RunSegments'): its
// passes in the order they run, the rider plan over them, the outcomes riders
// read until their own tasks ask, and, with a store, a memo of the whole
// evaluation. A nil *Pack is valid: it holds and carries nothing.
//
// Every policy's run of a kernel is a prefix of its ModeFull run, and
// sim.RunProbes reads any set of them off one pass, so the first task to
// reach the simulator carries the later passes over that kernel as riders,
// and their outcomes are banked here. A task carries every pass bound after
// its own but a ModeFull one, which never rides, so over a partly warm store
// no pass runs further than the missing outcomes need. Riders are matched by
// content — a launch whose key under the running task equals the running
// kernel's — so whichever duplicate launch the scheduler reaches first does
// the pass. A rider's own task later finds its outcome banked, is accounted
// TierSim and persists it, so every outcome is written once, by the task
// that asked for it; one is left banked only when the mem tier of a shared
// Exec served that task.
//
// The memo is the encoded selection, a digest of every task key the
// evaluation resolves, and every pass's EncodeOutcome payloads back to back,
// in pass order, under a key over the evaluation's inputs. A warm study reads
// it in place of the selection and the per-key entries, whose bytes it
// repeats. A pack that serves banks nothing, since no task of its evaluation
// simulates, and each of its passes is a copy of its slice of the memo
// (Exec.served): the ladder, the scheduler and the mem tier's singleflight
// are for the passes of an evaluation it does not serve.
type Pack struct {
	store *artifact.Store // nil: the pack plans riders and keeps nothing
	key   string
	w     *workload.Workload // the evaluation's one workload, which remembers its keys; nil for none

	// What the store held, while it is trusted (Refuse clears found), and
	// the digest as read, then as Bind takes it.
	found  bool
	sel    []byte
	outs   []KernelOutcome
	digest string

	dev    gpu.Device
	passes []RiderPass // as Bind laid them out

	mu sync.Mutex
	// Both tables are made on first need: an all-hit study needs neither.
	keys   map[passKeys][]string
	banked map[string]KernelOutcome
}

// passKeys names the TaskKeys of one pass's launches under one task spec.
type passKeys struct {
	task KernelTask
	pass int
}

// rider is one task riding along on another's simulator pass.
type rider struct {
	key  string
	task KernelTask
	obs  TaskObs
}

// OpenPack reads the pack of an evaluation on dev of subject (the workload's
// full name, or the names a shared selection covers) whose selection section
// is sel — the selection's store key, the bytes of a selection the caller
// passes, nil for none — whose passes issue tasks in order, and whose scan
// derived keys (a Scan's Keys, nil for none). That is a warm evaluation's one
// store read. Without a store the pack keys, reads and writes nothing but
// still plans riders; a nil Exec has no pack. A pack the layout refuses is
// counted corrupt and set aside. TaskKeys are fixed-width hex, so keys and
// Bind's digest hash them back to back, one section: a fraction of the cost
// of a section each.
//
// w, for one workload's evaluation, launched every kernel the pack binds (IDs
// index it), and keys are the ModeFull TaskKeys of its first len(keys). Then
// the pack key, a pure function of dev, subject, sel, the task specs and
// len(keys), is remembered on w, and so is what Bind derives.
func (e *Exec) OpenPack(dev gpu.Device, w *workload.Workload, subject string, sel []byte, tasks []KernelTask, keys []string) *Pack {
	if e == nil {
		return nil
	}
	if e.packs == nil {
		return &Pack{w: w}
	}
	what := appendDeviceSection(append(make([]byte, 0, 1024), "sampling.pack"...), dev)
	what = append(appendInt(what, len(subject)), subject...)
	what = appendInt(append(appendInt(what, len(sel)), sel...), len(tasks))
	for _, t := range tasks {
		what = appendTaskSection(what, t) // self-delimiting: the mode comes first
	}
	p := &Pack{store: e.packs, w: w, key: recall(w, appendInt(what, len(keys)), func() string {
		derived.packKeys.Add(1)
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
		return h.Sum()
	})}
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
// outcome's place in it, and the pack plans riders over them. The pack serves
// only if it holds one outcome per task under the digest of every key;
// anything else is refused. With a workload (see OpenPack) the expected
// values are remembered: a pass's TaskKeys under its task spec and launches,
// the digest under every pass's.
func (p *Pack) Bind(dev gpu.Device, passes ...*RiderPass) {
	if p == nil {
		return
	}
	p.dev, p.passes = dev, make([]RiderPass, len(passes))
	digestOf := appendDeviceSection(append(make([]byte, 0, 1024), "sampling.digest"...), dev)
	keysOf := make([]byte, 0, 1024)
	n := 0
	for i, rp := range passes {
		from := len(digestOf)
		digestOf = appendLaunches(appendTaskSection(digestOf, rp.Task), rp.Kernels)
		if len(rp.Keys) != len(rp.Kernels) {
			keysOf = append(appendDeviceSection(append(keysOf[:0], "sampling.keys"...), dev), digestOf[from:]...)
			rp.Keys = recall(p.w, keysOf, func() []string { return taskKeys(dev, rp.Task, rp.Kernels) })
		}
		rp.Pack, rp.At = p, n
		n += len(rp.Keys)
		p.passes[i] = *rp
	}
	if p.store == nil {
		return
	}
	digest := recall(p.w, digestOf, func() string {
		derived.digests.Add(1)
		keys := make([]byte, 0, 2*sha256.Size*n)
		for _, rp := range passes {
			for _, k := range rp.Keys {
				keys = append(keys, k...)
			}
		}
		sum := sha256.Sum256(keys)
		return string(sum[:])
	})
	if p.found && (len(p.outs) != n || p.digest != digest) {
		p.Refuse()
	}
	p.digest = digest
}

// appendLaunches appends the count of kernels, then where each run of
// consecutive launch indices (IDs) starts and its first index: a full pass is
// one run.
func appendLaunches(b []byte, kernels []trace.KernelDesc) []byte {
	b = appendInt(b, len(kernels))
	for i, k := range kernels {
		if i == 0 || k.ID != kernels[i-1].ID+1 {
			b = appendInt(appendInt(b, i), k.ID)
		}
	}
	return b
}

// serves reports whether the pack holds the bound passes' outcomes.
func (p *Pack) serves() bool { return p != nil && p.found }

// Save, called once every pass is done, stores the evaluation's pack with sel
// as its selection section and outs, every bound pass's outcomes in pass
// order, unless the pack served. That includes an evaluation the mem tier
// served whole: the next process has no mem tier.
func (p *Pack) Save(sel []byte, outs []KernelOutcome) {
	if p != nil && p.store != nil && !p.found {
		_ = p.store.Put(p.key, encodePack(sel, p.digest, outs)) // best-effort, like persist
	}
}

// Banked reports how many riders' outcomes have not been asked for yet.
func (p *Pack) Banked() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.banked)
}

// keysUnder returns pass i's launches' TaskKeys under task, derived once.
// Callers hold mu.
func (p *Pack) keysUnder(task KernelTask, i int) []string {
	pk := passKeys{task, i}
	keys, ok := p.keys[pk]
	if !ok {
		if p.keys == nil {
			p.keys = map[passKeys][]string{}
		}
		keys = taskKeys(p.dev, task, p.passes[i].Kernels)
		p.keys[pk] = keys
	}
	return keys
}

// riders lists what the task keyed key should carry to the simulator.
func (p *Pack) riders(task KernelTask, key string) []rider {
	if p == nil {
		return nil
	}
	from := 1 + slices.IndexFunc(p.passes, func(rp RiderPass) bool { return rp.Task == task })
	var out []rider
	for i := from; i < len(p.passes); i++ {
		pass := p.passes[i]
		if pass.Task.Mode == ModeFull {
			continue
		}
		p.mu.Lock()
		j := slices.Index(p.keysUnder(task, i), key) // the first launch of equal content
		p.mu.Unlock()
		if j < 0 {
			continue
		}
		r := rider{key: pass.Keys[j], task: pass.Task}
		if pass.Obs != nil { // the caller's code: run it outside the lock
			r.obs = pass.Obs(j)
		}
		out = append(out, r)
	}
	return out
}

// deposit banks the outcome a pass read for the rider keyed key.
func (p *Pack) deposit(key string, oc KernelOutcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.banked == nil {
		p.banked = map[string]KernelOutcome{}
	}
	p.banked[key] = oc
}

// take withdraws the outcome banked under key, if any.
func (p *Pack) take(key string) (KernelOutcome, bool) {
	if p == nil {
		return KernelOutcome{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	oc, ok := p.banked[key]
	if ok {
		delete(p.banked, key)
	}
	return oc, ok
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
