package cli

import (
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pka/internal/artifact"
	"pka/internal/core"
	"pka/internal/gpu"
	"pka/internal/remote"
	"pka/internal/sampling"
	"pka/internal/trace"
	"pka/internal/workload"
)

// task is the spec every case resolves its cold kernel under.
var task = sampling.KernelTask{Mode: sampling.ModePKS, MaxCycles: 1 << 22}

func studyKernels(t *testing.T) []trace.KernelDesc {
	t.Helper()
	w := workload.Find("Rodinia/gauss_mat4")
	if w == nil {
		t.Fatal("study workload missing")
	}
	ks := make([]trace.KernelDesc, w.N)
	for i := range ks {
		ks[i] = w.Kernel(i)
	}
	return ks
}

// parse registers every bundle on a private flag set, as pka and pkaserve
// do on the default one, and parses args.
func parse(t *testing.T, args ...string) *ExecFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fl := &ExecFlags{}
	fl.Obs.Register(fs)
	fl.Cache.Register(fs)
	fl.Shard.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fl
}

// Build is the only wiring: for each flag set, the ladder it returns has
// exactly the tiers the flags name — observed through the cache families
// it reports and the tier that serves a cold kernel — and Close is
// idempotent whatever was opened. The shard tier is no cache family: its
// cold lookup shows in pka_shard_peer_misses_total alone.
func TestBuildWiresTheLadderFromFlags(t *testing.T) {
	dev := gpu.VoltaV100()
	ks := studyKernels(t)
	peerStore, err := artifact.Open(t.TempDir(), artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer peerStore.Close()
	peer := httptest.NewServer(remote.NewServer(peerStore).Handler())
	defer peer.Close()
	metrics := filepath.Join(t.TempDir(), "m.prom")
	shardMetrics := filepath.Join(t.TempDir(), "shard.prom")

	cases := []struct {
		name     string
		args     []string
		families []string
		tier     string
		missed   string // family that must have seen the cold lookup
		metrics  string // exposition the session writes at Close
		prom     []string
	}{
		{name: "none", families: []string{"kernel_mem"}, tier: "sim", missed: "kernel_mem"},
		{name: "cache-dir", args: []string{"-cache-dir", t.TempDir(), "-metrics", metrics},
			families: []string{"artifact", "batch", "kernel_mem", "selection"}, tier: "sim", missed: "artifact",
			// The per-tier families only SetMetrics produces and the
			// registered caches.
			metrics: metrics, prom: []string{"pka_exec_tier_sim_total 1", "pka_cache_artifact_misses 1", "pka_cache_kernel_mem_misses 1"}},
		{name: "cache-dir+shard", args: []string{"-cache-dir", t.TempDir(), "-shard", peer.URL, "-metrics", shardMetrics},
			families: []string{"artifact", "batch", "kernel_mem", "selection"}, tier: "sim", missed: "artifact",
			metrics: shardMetrics, prom: []string{"pka_shard_peer_misses_total 1", "pka_shard_peer_hits_total 0", "pka_exec_tier_sim_total 1"}},
	}
	for _, tc := range cases {
		fl := parse(t, tc.args...)
		sess, err := fl.Build(2)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (sess.Store != nil) != (fl.Cache.Dir != "") || sess.Exec.Store() != sess.Store {
			t.Errorf("%s: store %v on session, %v on exec", tc.name, sess.Store, sess.Exec.Store())
		}
		fr := sampling.NewFlightRecorder()
		if _, err := sess.Exec.RunKernels(dev, sampling.RiderPass{Task: task, Kernels: ks[:1], Obs: func(int) sampling.TaskObs {
			return sampling.TaskObs{Flight: fr, Phase: "t"}
		}}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fr.TierCounts(); got[tc.tier] != 1 || fr.Len() != 1 {
			t.Errorf("%s: cold kernel served by %v, want one %s", tc.name, got, tc.tier)
		}
		stats := sess.Exec.CacheStats()
		var families []string
		for f := range stats {
			families = append(families, f)
		}
		sort.Strings(families)
		if !reflect.DeepEqual(families, tc.families) {
			t.Errorf("%s: cache families %v, want %v", tc.name, families, tc.families)
		}
		if stats[tc.missed].Misses == 0 {
			t.Errorf("%s: the %s tier never saw the cold lookup: %+v", tc.name, tc.missed, stats)
		}
		for i := 0; i < 2; i++ {
			if err := sess.Close(); err != nil {
				t.Errorf("%s: close #%d: %v", tc.name, i+1, err)
			}
		}
		if tc.metrics == "" {
			continue
		}
		prom := readExposition(t, tc.metrics)
		for _, want := range tc.prom {
			name, value, _ := strings.Cut(want, " ")
			if got, ok := prom[name]; !ok || got != value {
				t.Errorf("%s: exposition has %s = %q, want %s", tc.name, name, got, value)
			}
		}
	}
}

// A cold study and a warm one over the same -cache-dir, each writing its
// -metrics exposition: the cold one simulates, the warm one simulates
// nothing and is served from the store, with a pack for every batch the
// cold study ran. These are the facts the exposition alone reports about a
// cache's temperature.
func TestColdWarmExposition(t *testing.T) {
	w, err := FindWorkload("Rodinia/gauss_mat4")
	if err != nil {
		t.Fatal(err)
	}
	dir, tmp := t.TempDir(), t.TempDir()
	study := func(name string) map[string]string {
		t.Helper()
		prom := filepath.Join(tmp, name+".prom")
		sess, err := parse(t, "-cache-dir", dir, "-metrics", prom).Build(2)
		if err != nil {
			t.Fatal(err)
		}
		_, err = core.Evaluate(core.Config{Device: gpu.VoltaV100(), Obs: sess.Observer, Exec: sess.Exec}, w)
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s study: %v", name, err)
		}
		return readExposition(t, prom)
	}
	num := func(prom map[string]string, name string) float64 {
		t.Helper()
		v, err := strconv.ParseFloat(prom[name], 64)
		if err != nil {
			t.Fatalf("exposition sample %s = %q: %v", name, prom[name], err)
		}
		return v
	}

	cold := study("cold")
	if got := num(cold, "pka_exec_tier_sim_total"); got == 0 {
		t.Error("cold study simulated nothing: pka_exec_tier_sim_total 0")
	}
	warm := study("warm")
	if got := num(warm, "pka_exec_tier_sim_total"); got != 0 {
		t.Errorf("warm study simulated %v kernel tasks, want 0", got)
	}
	if hits := num(warm, "pka_cache_artifact_hits") + num(warm, "pka_cache_batch_hits"); hits == 0 {
		t.Error("warm study reports no per-key or pack hits")
	}
	if got := num(warm, "pka_cache_batch_misses"); got != 0 {
		t.Errorf("warm study missed %v packs the cold one should have written", got)
	}
}

// readExposition reads a Prometheus text exposition into its samples,
// name (with labels) to value text.
func readExposition(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			samples[line[:i]] = line[i+1:]
		}
	}
	return samples
}
