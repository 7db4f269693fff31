package sampling

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"pka/internal/artifact"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/pkp"
	"pka/internal/pks"
	"pka/internal/trace"
	"pka/internal/workload"
)

func testKernel(t *testing.T) trace.KernelDesc {
	t.Helper()
	w := workload.Find("Rodinia/gauss_mat4")
	if w == nil {
		t.Fatal("study workload missing")
	}
	return w.Kernel(0)
}

func TestTaskKeyIgnoresIdentity(t *testing.T) {
	dev := gpu.VoltaV100()
	k := testKernel(t)
	task := KernelTask{Mode: ModeFull}
	base := TaskKey(dev, &k, task)

	// Launch index and display name are identity, not content: two
	// launches with identical features must share one cache entry.
	k2 := k
	k2.ID = k.ID + 1000
	k2.Name = "renamed_" + k.Name
	if TaskKey(dev, &k2, task) != base {
		t.Fatal("kernel ID/name changed the content key")
	}
}

func TestTaskKeySensitivity(t *testing.T) {
	dev := gpu.VoltaV100()
	k := testKernel(t)
	task := KernelTask{Mode: ModePKA, MaxCycles: 12345, PKP: NewPKPSpec(pkp.Options{})}
	base := TaskKey(dev, &k, task)

	perturb := map[string]func() string{
		"device": func() string {
			d := dev
			d.NumSMs++
			return TaskKey(d, &k, task)
		},
		"grid": func() string {
			kk := k
			kk.Grid.X++
			return TaskKey(dev, &kk, task)
		},
		"mix": func() string {
			kk := k
			kk.Mix.Compute++
			return TaskKey(dev, &kk, task)
		},
		"coalescing": func() string {
			kk := k
			kk.CoalescingFactor = math.Nextafter(kk.CoalescingFactor, 2)
			return TaskKey(dev, &kk, task)
		},
		"seed": func() string {
			kk := k
			kk.Seed++
			return TaskKey(dev, &kk, task)
		},
		"mode": func() string {
			tt := task
			tt.Mode = ModePKS
			return TaskKey(dev, &k, tt)
		},
		"max-cycles": func() string {
			tt := task
			tt.MaxCycles++
			return TaskKey(dev, &k, tt)
		},
		"pkp-threshold": func() string {
			tt := task
			tt.PKP.Threshold *= 2
			return TaskKey(dev, &k, tt)
		},
	}
	for name, f := range perturb {
		if f() == base {
			t.Errorf("perturbing %s did not change the key", name)
		}
	}

	// PKP parameters are inert outside ModePKA: PKS tasks with different
	// thresholds are the same work.
	pksA := KernelTask{Mode: ModePKS, MaxCycles: 1, PKP: PKPSpec{Threshold: 0.1, Window: 7}}
	pksB := KernelTask{Mode: ModePKS, MaxCycles: 1, PKP: PKPSpec{Threshold: 0.9, Window: 9}}
	if TaskKey(dev, &k, pksA) != TaskKey(dev, &k, pksB) {
		t.Error("PKP spec leaked into a non-PKA key")
	}
}

// TestKeysHoldSixtyFourBitWords: the 64-bit fields a key hashes keep all 64
// bits whatever the width of int — launches whose working sets differ by
// 4 GiB, and task specs whose cycle caps or warp budgets do, are different
// work under TaskKey and SelectionKey (a 32-bit int once folded them).
func TestKeysHoldSixtyFourBitWords(t *testing.T) {
	dev := gpu.VoltaV100()
	k := testKernel(t)
	far := k
	far.WorkingSetBytes += 1 << 32
	full := KernelTask{Mode: ModeFull}
	if TaskKey(dev, &k, full) == TaskKey(dev, &far, full) {
		t.Error("working sets 4 GiB apart share a TaskKey")
	}
	for _, task := range []KernelTask{{Mode: ModePKS, MaxCycles: 1000}, {Mode: ModeFirstN, MaxCycles: 1000, WarpBudget: 1000}} {
		wide := task
		wide.MaxCycles += 1 << 32
		wide.WarpBudget += 1 << 32
		if TaskKey(dev, &k, task) == TaskKey(dev, &k, wide) {
			t.Errorf("mode %d: specs 1<<32 apart share a TaskKey", task.Mode)
		}
	}
	one := func(k trace.KernelDesc) *workload.Workload {
		return workload.New("Test", "wide", 1, func(int) trace.KernelDesc { return k })
	}
	if SelectionKey(dev, one(k), nil) == SelectionKey(dev, one(far), nil) {
		t.Error("working sets 4 GiB apart share a SelectionKey")
	}
}

// TestSelectionKeySensitivity: everything a selection is a function of moves
// the key, and nothing else does.
func TestSelectionKeySensitivity(t *testing.T) {
	dev := gpu.VoltaV100()
	w := workload.Find("Polybench/fdtd2d")
	if w == nil {
		t.Fatal("study workload missing")
	}
	// The options enter as core.Select passes them: pks.Options.AppendKey's bytes.
	selectionKey := func(d gpu.Device, of *workload.Workload, o pks.Options) string {
		return SelectionKey(d, of, o.AppendKey(nil))
	}
	base := selectionKey(dev, w, pks.Options{})

	// launches returns w with launch i rewritten by edit.
	launches := func(edit func(i int, k *trace.KernelDesc)) *workload.Workload {
		return workload.New(w.Suite, w.Name, w.N, func(i int) trace.KernelDesc {
			k := w.Kernel(i)
			edit(i, &k)
			return k
		})
	}
	opt := func(o pks.Options) string { return selectionKey(dev, w, o) }
	perturb := map[string]string{
		"target":       opt(pks.Options{TargetErrorPct: 4}),
		"max-k":        opt(pks.Options{MaxK: 19}),
		"rep-policy":   opt(pks.Options{Representative: pks.RepClusterCenter}),
		"disable-pca":  opt(pks.Options{DisablePCA: true}),
		"budget":       opt(pks.Options{DetailedBudgetSeconds: 3600}),
		"max-detailed": opt(pks.Options{MaxDetailed: 100}),
		"sample-max":   opt(pks.Options{ClusterSampleMax: 100}),
		"seed":         opt(pks.Options{Seed: 1}),
		"workload-name": selectionKey(dev, func() *workload.Workload {
			c := *w
			c.Name += "2"
			return &c
		}(), pks.Options{}),
		"launch-count": selectionKey(dev, func() *workload.Workload {
			c := *w
			c.N--
			return &c
		}(), pks.Options{}),
		"one-name": selectionKey(dev, launches(func(i int, k *trace.KernelDesc) {
			if i == 7 {
				k.Name += "_v2"
			}
		}), pks.Options{}),
		"one-feature": selectionKey(dev, launches(func(i int, k *trace.KernelDesc) {
			if i == 7 {
				k.CoalescingFactor = math.Nextafter(k.CoalescingFactor, 64)
			}
		}), pks.Options{}),
	}
	// Every device field, found by reflection so a new one cannot be missed.
	dv := reflect.ValueOf(&dev).Elem()
	for f := 0; f < dv.NumField(); f++ {
		d := dev
		fv := reflect.ValueOf(&d).Elem().Field(f)
		switch fv.Kind() {
		case reflect.String:
			fv.SetString(fv.String() + "x")
		case reflect.Bool:
			fv.SetBool(!fv.Bool())
		case reflect.Float64:
			fv.SetFloat(fv.Float() * 2)
		default:
			fv.SetInt(fv.Int() + 1)
		}
		perturb["device."+dv.Type().Field(f).Name] = selectionKey(d, w, pks.Options{})
	}
	for name, key := range perturb {
		if key == base {
			t.Errorf("perturbing %s did not change the key", name)
		}
	}

	// Swapping two different launches is a different workload.
	launch := func(i int) trace.KernelDesc { // launch i, its ID left to the accessors
		k := w.Kernel(i)
		k.ID = 0
		return k
	}
	a, b := 0, 1
	for ka := launch(a); b < w.N && reflect.DeepEqual(ka, launch(b)); b++ {
	}
	if b == w.N {
		t.Fatal("workload has one distinct launch; pick another")
	}
	swapped := workload.New(w.Suite, w.Name, w.N, func(i int) trace.KernelDesc {
		switch i {
		case a:
			return launch(b)
		case b:
			return launch(a)
		}
		return launch(i)
	})
	if selectionKey(dev, swapped, pks.Options{}) == base {
		t.Error("swapping two launches did not change the key")
	}

	// Zero values and the defaults they stand for are one configuration, and
	// observers are not configuration.
	explicit := pks.Options{TargetErrorPct: 5, MaxK: 20,
		DetailedBudgetSeconds: 7 * 24 * 3600, ClusterSampleMax: 20000}
	if opt(explicit) != base {
		t.Error("explicit defaults key differently from zero values")
	}
	o := obs.NewObserver()
	if opt(pks.Options{Audit: o.Audit, Metrics: o.PKSMetrics()}) != base {
		t.Error("Audit/Metrics entered the key")
	}
}

func TestNewPKPSpecCanonicalizes(t *testing.T) {
	got := NewPKPSpec(pkp.Options{})
	want := PKPSpec{Threshold: pkp.DefaultThreshold, Window: pkp.DefaultWindow}
	if got != want {
		t.Fatalf("NewPKPSpec zero = %+v, want defaults %+v", got, want)
	}
	dev := gpu.VoltaV100()
	k := testKernel(t)
	explicit := KernelTask{Mode: ModePKA, PKP: want}
	implicit := KernelTask{Mode: ModePKA, PKP: NewPKPSpec(pkp.Options{})}
	if TaskKey(dev, &k, explicit) != TaskKey(dev, &k, implicit) {
		t.Fatal("default and explicit-default PKP specs key differently")
	}
}

func TestOutcomeCodecRoundtrip(t *testing.T) {
	cases := []KernelOutcome{
		{},
		{ProjCycles: 1 << 40, SimWarpInstrs: 7, ThreadInstrs: 3.25, DRAMUtil: 0.875},
		{ProjCycles: -1, ThreadInstrs: math.Inf(1), Capped: true},
		{DRAMUtil: math.Nextafter(0, 1), Truncated: true},
		{Capped: true, Truncated: true},
	}
	for _, oc := range cases {
		got, err := DecodeOutcome(EncodeOutcome(oc))
		if err != nil {
			t.Fatalf("roundtrip of %+v: %v", oc, err)
		}
		if got != oc {
			t.Fatalf("roundtrip of %+v = %+v", oc, got)
		}
	}
	for _, bad := range [][]byte{nil, make([]byte, outcomeSize-1), make([]byte, outcomeSize+1)} {
		if _, err := DecodeOutcome(bad); err == nil {
			t.Fatalf("decode accepted %d bytes", len(bad))
		}
	}
	withBadFlags := EncodeOutcome(KernelOutcome{})
	withBadFlags[32] = 4
	if _, err := DecodeOutcome(withBadFlags); err == nil {
		t.Fatal("decode accepted unknown flag bits")
	}
}

// TestExecCacheLayering: a disk entry written by one Exec satisfies a
// second Exec (fresh memory cache) from the store, and a third call on the
// second Exec from memory — all three byte-identical.
func TestExecCacheLayering(t *testing.T) {
	dev := gpu.VoltaV100()
	k := testKernel(t)
	kernels := []trace.KernelDesc{k}
	task := KernelTask{Mode: ModeFull}

	st, err := artifact.Open(t.TempDir(), artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	cold := NewExec(nil, st)
	a, err := cold.RunKernels(dev, RiderPass{Task: task, Kernels: kernels})
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Writes != 1 || s.Hits != 0 {
		t.Fatalf("cold run stats %+v, want one write and no hits", s)
	}

	warm := NewExec(nil, st)
	b, err := warm.RunKernels(dev, RiderPass{Task: task, Kernels: kernels})
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Hits != 1 {
		t.Fatalf("warm run did not hit the store: %+v", s)
	}
	c, err := warm.RunKernels(dev, RiderPass{Task: task, Kernels: kernels})
	if err != nil {
		t.Fatal(err)
	}
	if h, m := warm.MemStats(); h != 1 || m != 1 {
		t.Fatalf("mem stats = %d/%d, want 1 hit / 1 miss", h, m)
	}
	if s := st.Stats(); s.Hits != 1 {
		t.Fatalf("second warm call bypassed memory: %+v", s)
	}
	if a[0] != b[0] || b[0] != c[0] {
		t.Fatalf("outcomes diverge across layers: %+v %+v %+v", a[0], b[0], c[0])
	}

	// And a serial, uncached run agrees with all of them.
	d, err := (*Exec)(nil).RunKernels(dev, RiderPass{Task: task, Kernels: kernels})
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != a[0] {
		t.Fatalf("uncached outcome %+v != cached %+v", d[0], a[0])
	}
}

// TestExecScheduledMatchesSerial: scheduling kernels across workers
// returns the same outcomes in the same order as the inline path.
func TestExecScheduledMatchesSerial(t *testing.T) {
	dev := gpu.VoltaV100()
	w := workload.Find("Rodinia/gauss_mat4")
	kernels := make([]trace.KernelDesc, w.N)
	for i := range kernels {
		kernels[i] = w.Kernel(i)
	}
	task := KernelTask{Mode: ModePKS, MaxCycles: 50_000}

	serial, err := (*Exec)(nil).RunKernels(dev, RiderPass{Task: task, Kernels: kernels})
	if err != nil {
		t.Fatal(err)
	}
	sched := NewExec(parallel.NewScheduler(4), nil)
	par, err := sched.RunKernels(dev, RiderPass{Task: task, Kernels: kernels})
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(serial) {
		t.Fatalf("length mismatch: %d vs %d", len(par), len(serial))
	}
	for i := range serial {
		if par[i] != serial[i] {
			t.Fatalf("kernel %d: scheduled %+v != serial %+v", i, par[i], serial[i])
		}
	}
}

// TestCorruptStoreEntryRecomputes: a corrupted disk entry must be
// recomputed transparently, yielding the same outcome as the clean run —
// and be counted as the corrupt miss it was, not as a hit.
func TestCorruptStoreEntryRecomputes(t *testing.T) {
	dev := gpu.VoltaV100()
	k := testKernel(t)
	task := KernelTask{Mode: ModeFull}
	key := TaskKey(dev, &k, task)

	st, err := artifact.Open(t.TempDir(), artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	clean, err := NewExec(nil, st).RunKernels(dev, RiderPass{Task: task, Kernels: []trace.KernelDesc{k}})
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite the entry with a validly-checksummed but undecodable
	// payload: wrong size for the outcome codec.
	if err := st.Put(key, []byte("schema drifted")); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	fr := NewFlightRecorder()
	again, err := NewExec(nil, st).RunKernels(dev, RiderPass{Task: task, Kernels: []trace.KernelDesc{k}, Obs: func(int) TaskObs {
		return TaskObs{Flight: fr, Phase: "t"}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != clean[0] {
		t.Fatalf("recomputed outcome %+v != clean %+v", again[0], clean[0])
	}
	if now := st.Stats(); now.Hits != before.Hits || now.Corrupt != before.Corrupt+1 || now.Misses != before.Misses+1 || fr.TierCounts()["sim"] != 1 {
		t.Errorf("drifted entry: stats %+v after %+v, tiers %v; want no hit, one corrupt miss, tier sim", now, before, fr.TierCounts())
	}
	raw, ok := st.Get(key)
	if restored, err := DecodeOutcome(raw); !ok || err != nil || restored != clean[0] {
		t.Errorf("the recompute's Put did not restore a decodable entry: %+v, %v, %v", restored, ok, err)
	}
}

// FuzzDecodeOutcome: the outcome decoder reads persisted and peer-served
// bytes; whatever they are it must not panic, and whatever it accepts must
// re-encode to the input exactly.
func FuzzDecodeOutcome(f *testing.F) {
	good := EncodeOutcome(KernelOutcome{ProjCycles: 1 << 40, SimWarpInstrs: 7, ThreadInstrs: 3.25, DRAMUtil: 0.875, Capped: true})
	f.Add(good)
	f.Add(good[:outcomeSize-1])
	f.Add(append(good[:outcomeSize:outcomeSize], 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		oc, err := DecodeOutcome(b)
		if err != nil {
			return
		}
		if got := EncodeOutcome(oc); !bytes.Equal(got, b) {
			t.Fatalf("decoded %x, re-encoded %x", b, got)
		}
	})
}
