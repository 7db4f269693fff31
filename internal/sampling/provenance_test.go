package sampling

import (
	"encoding/json"
	"strings"
	"testing"

	"pka/internal/artifact"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/trace"
)

func TestFlightRecorderDeterministicFold(t *testing.T) {
	fr := NewFlightRecorder()
	// Record out of launch order, as parallel execution would.
	fr.Record(ProvEntry{Phase: "pks", Index: 1, Tier: TierSim})
	fr.Record(ProvEntry{Phase: "full", Index: 2, Tier: TierDisk})
	fr.Record(ProvEntry{Phase: "full", Index: 0, Tier: TierSim})
	fr.Record(ProvEntry{Phase: "pks", Index: 0, Tier: TierShard, Peer: "http://w1"})

	es := fr.Entries()
	want := []struct {
		phase string
		index int
	}{{"full", 0}, {"full", 2}, {"pks", 0}, {"pks", 1}}
	if len(es) != len(want) {
		t.Fatalf("got %d entries, want %d", len(es), len(want))
	}
	for i, w := range want {
		if es[i].Phase != w.phase || es[i].Index != w.index {
			t.Fatalf("entry %d = %s/%d, want %s/%d", i, es[i].Phase, es[i].Index, w.phase, w.index)
		}
	}

	tiers := fr.TierCounts()
	sum := 0
	for _, n := range tiers {
		sum += n
	}
	if sum != fr.Len() {
		t.Fatalf("tier counts sum %d != %d launches", sum, fr.Len())
	}
	if tiers["sim"] != 2 || tiers["disk"] != 1 || tiers["shard"] != 1 {
		t.Fatalf("tier counts %v", tiers)
	}
	if pc := fr.PeerCounts(); len(pc) != 1 || pc["http://w1"] != 1 {
		t.Fatalf("peer counts %v", pc)
	}
}

// TestTierNamesRoundTrip: flight NDJSON and /v1/study provenance carry
// tiers by name, so every tier needs a name of its own, and the name must decode back
// to the same tier.
func TestTierNamesRoundTrip(t *testing.T) {
	if len(obs.ExecTierNames) != int(TierSim)+1 {
		t.Fatalf("%d tier names for %d tiers", len(obs.ExecTierNames), int(TierSim)+1)
	}
	for tier := TierMem; tier <= TierSim; tier++ {
		raw, err := tier.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var got Tier
		if err := got.UnmarshalJSON(raw); err != nil || got != tier {
			t.Errorf("tier %d: %s decodes to %d (%v)", tier, raw, got, err)
		}
	}
}

// TestFlightReportGolden pins the flight recorder's one report, the -flight
// NDJSON: one line per entry in (phase, index) order, every field present,
// the shard peer under "peer".
func TestFlightReportGolden(t *testing.T) {
	fr := NewFlightRecorder()
	fr.Record(ProvEntry{Phase: "pks", Index: 0, Tier: TierShard,
		Peer: "http://w1", ServiceNs: 3_000_000})
	fr.Record(ProvEntry{Phase: "full", Index: 0, Tier: TierSim,
		WaitNs: 1_000_000, ServiceNs: 2_000_000})

	var nd strings.Builder
	if err := fr.WriteNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(nd.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("NDJSON has %d lines, want 2", len(lines))
	}
	want := []string{
		`{"phase":"full","index":0,"kernel":"","key":"","tier":"sim","peer":"","wait_ns":1000000,"service_ns":2000000}`,
		`{"phase":"pks","index":0,"kernel":"","key":"","tier":"shard","peer":"http://w1","wait_ns":0,"service_ns":3000000}`,
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %s, want %s", i, lines[i], want[i])
		}
	}
}

// TestFlightNDJSONIsJSON writes kernel and peer names that Go-quoting and
// JSON render differently and requires every line to decode back to its
// entry. A name both render alike keeps its bytes, and empty kernel and
// peer fields stay present.
func TestFlightNDJSONIsJSON(t *testing.T) {
	names := []string{"bell\ak", "del\x7fk", `say "hi"`, `back\slash`, "gemm<float>", "café", ""}
	fr := NewFlightRecorder()
	for i, name := range names {
		fr.Record(ProvEntry{Phase: "pka", Index: i, Kernel: name, Key: "k", Tier: TierShard, Peer: name, ServiceNs: int64(i)})
	}
	var nd strings.Builder
	if err := fr.WriteNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(nd.String(), "\n"), "\n")
	if len(lines) != len(names) {
		t.Fatalf("NDJSON has %d lines, want %d", len(lines), len(names))
	}
	for i, line := range lines {
		var got struct {
			Kernel, Peer *string
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Errorf("line %d (%q) is not JSON: %v", i, names[i], err)
			continue
		}
		if got.Kernel == nil || *got.Kernel != names[i] || got.Peer == nil || *got.Peer != names[i] {
			t.Errorf("line %d decodes to kernel %v peer %v, want %q: %s", i, got.Kernel, got.Peer, names[i], line)
		}
	}
	const want = `{"phase":"pka","index":4,"kernel":"gemm<float>","key":"k","tier":"shard","peer":"gemm<float>","wait_ns":0,"service_ns":4}`
	if lines[4] != want {
		t.Errorf("line 4 = %s, want %s", lines[4], want)
	}
}

// TestExecTierAttribution runs the same kernel task through the ladder
// three ways and checks each execution is attributed to the tier that
// actually served it: fresh sim, then the in-memory singleflight, then a
// cold process warming from the disk artifact store.
func TestExecTierAttribution(t *testing.T) {
	store, err := artifact.Open(t.TempDir(), artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	dev := gpu.VoltaV100()
	k := testKernel(t)
	task := KernelTask{Mode: ModeFull}

	fr := NewFlightRecorder()
	run := func(ex *Exec, index int) KernelOutcome {
		outs, err := ex.RunKernels(dev, RiderPass{Task: task, Kernels: []trace.KernelDesc{k}, Obs: func(int) TaskObs {
			return TaskObs{Flight: fr, Phase: "t", Index: index}
		}})
		if err != nil {
			t.Fatal(err)
		}
		return outs[0]
	}
	exec := NewExec(nil, store)
	base := run(exec, 0)
	run(exec, 1)
	if oc := run(NewExec(nil, store), 2); oc != base {
		t.Fatalf("disk-served outcome differs: %+v vs %+v", oc, base)
	}

	es := fr.Entries()
	if len(es) != 3 {
		t.Fatalf("recorded %d entries, want 3", len(es))
	}
	wantTiers := []Tier{TierSim, TierMem, TierDisk}
	for i, want := range wantTiers {
		if es[i].Tier != want {
			t.Errorf("launch %d attributed to %s, want %s", i, es[i].Tier, want)
		}
		if es[i].Key == "" {
			t.Errorf("launch %d has no content key", i)
		}
		if es[i].ServiceNs < 0 || es[i].WaitNs < 0 {
			t.Errorf("launch %d has negative durations: %+v", i, es[i])
		}
	}
	if es[0].Kernel != k.Name {
		t.Errorf("launch 0 kernel %q, want %q", es[0].Kernel, k.Name)
	}

	sum := 0
	for _, n := range fr.TierCounts() {
		sum += n
	}
	if sum != 3 {
		t.Fatalf("tier counts sum %d, want 3", sum)
	}
}
