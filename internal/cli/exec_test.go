package cli

import (
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pka/internal/artifact"
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
// idempotent whatever was opened.
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

	cases := []struct {
		name     string
		args     []string
		families []string
		tier     string
		missed   string // family that must have seen the cold lookup
	}{
		{"none", nil, []string{"kernel_mem"}, "sim", "kernel_mem"},
		{"cache-dir", []string{"-cache-dir", t.TempDir(), "-metrics", metrics},
			[]string{"artifact", "batch", "kernel_mem", "selection"}, "sim", "artifact"},
		{"cache-dir+shard", []string{"-cache-dir", t.TempDir(), "-shard", peer.URL},
			[]string{"artifact", "batch", "kernel_mem", "selection", "shard"}, "sim", "shard"},
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
		}}, nil); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fr.TierCounts(); got[tc.tier] != 1 || fr.Len() != 1 {
			t.Errorf("%s: cold kernel served by %v, want one %s", tc.name, got, tc.tier)
		}
		stats := sess.families()
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
	}

	// The observed session wrote its exposition at Close, with the
	// per-tier families only SetMetrics produces and the registered caches.
	prom, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pka_exec_tier_sim_total 1", "pka_cache_artifact_misses 1", "pka_cache_kernel_mem_misses 1"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics exposition lacks %q", want)
		}
	}
}
