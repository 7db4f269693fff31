package core

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/stats"
	"pka/internal/workload"
)

// sameEvaluation compares two evaluations field by field, skipping the
// Workload pointer (the streamed run rebuilds its workload from events, so
// the generator closures differ while every kernel they serve is equal).
func sameEvaluation(t *testing.T, label string, got, want *Evaluation) {
	t.Helper()
	if got.Silicon != want.Silicon {
		t.Errorf("%s: silicon differs: %+v vs %+v", label, got.Silicon, want.Silicon)
	}
	if !reflect.DeepEqual(got.Selection, want.Selection) {
		t.Errorf("%s: selection differs:\ngot:  %+v\nwant: %+v", label, got.Selection, want.Selection)
	}
	if !reflect.DeepEqual(got.Full, want.Full) {
		t.Errorf("%s: full sim differs: %+v vs %+v", label, got.Full, want.Full)
	}
	if got.FullErrorPct != want.FullErrorPct || got.FullSimHours != want.FullSimHours {
		t.Errorf("%s: full accounting differs", label)
	}
	if got.PKS != want.PKS {
		t.Errorf("%s: PKS differs: %+v vs %+v", label, got.PKS, want.PKS)
	}
	if got.PKA != want.PKA {
		t.Errorf("%s: PKA differs: %+v vs %+v", label, got.PKA, want.PKA)
	}
}

// pksAudit returns the observer's selection decision records, sequence
// numbers cleared (they interleave with PKP records run to run).
func pksAudit(o *obs.Observer) []obs.AuditRecord {
	recs := o.Audit.Filter("pks", "")
	for i := range recs {
		recs[i].Seq = 0
	}
	return recs
}

// TestStreamDeterminism pins the tentpole invariant: the streaming
// pipeline's output is byte-identical to batch Evaluate at any
// parallelism, across event arrival orders within the launch window, and
// under forced speculative misprediction (advisory cluster revisions every
// few events) — speculation and overlap are pure wall-clock effects.
func TestStreamDeterminism(t *testing.T) {
	for _, name := range []string{"Rodinia/gauss_208", "Rodinia/hots_512"} {
		w := workload.Find(name)
		if w == nil {
			t.Fatalf("workload %s not registered", name)
		}
		batch := cfg()
		batch.Obs = obs.NewObserver()
		want, err := Evaluate(batch, w)
		if err != nil {
			t.Fatal(err)
		}
		wantAudit := pksAudit(batch.Obs)

		arms := []struct {
			label string
			par   int
			shuf  int
			opts  pks.StreamOptions
		}{
			{"in-order/p=1", 1, 0, pks.StreamOptions{}},
			{"in-order/p=4", 4, 0, pks.StreamOptions{}},
			{"shuffled/p=4", 4, 16, pks.StreamOptions{Window: 32}},
			{"misprediction/p=4", 4, 16, pks.StreamOptions{Window: 32, MinDetailed: 8, ResweepEvery: 8}},
		}
		for _, arm := range arms {
			c := cfg()
			c.Parallelism = arm.par
			c.Exec = sampling.NewExec(parallel.NewScheduler(arm.par), nil)
			c.Obs = obs.NewObserver()
			r, err := newStreamRunner(c, CompletePlan(), w.Suite, w.Name, w.N, arm.opts)
			if err != nil {
				t.Fatal(err)
			}
			order := make([]int, w.N)
			for i := range order {
				order[i] = i
			}
			if arm.shuf > 1 {
				rng := stats.NewRNG(13)
				for base := 0; base < w.N; base += arm.shuf {
					end := base + arm.shuf
					if end > w.N {
						end = w.N
					}
					for i := end - 1; i > base; i-- {
						j := base + rng.Intn(i-base+1)
						order[i], order[j] = order[j], order[i]
					}
				}
			}
			for _, i := range order {
				if err := r.Push(w.Kernel(i)); err != nil {
					t.Fatalf("%s/%s: push %d: %v", name, arm.label, i, err)
				}
			}
			res, err := r.Finish()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, arm.label, err)
			}
			sameEvaluation(t, name+"/"+arm.label, res.Evaluation, want)
			// One selection per study on either path, so the decision trail
			// agrees record for record — the advisory half audits nothing.
			if got := pksAudit(c.Obs); !reflect.DeepEqual(got, wantAudit) {
				t.Errorf("%s/%s: pks audit differs from batch:\ngot:  %+v\nwant: %+v", name, arm.label, got, wantAudit)
			}
			// hots_512 is a single-kernel app: the advisory clustering never
			// warms up, so only the multi-kernel workload asserts revisions.
			if arm.label == "misprediction/p=4" && w.N > 8 && res.Resweeps < 2 {
				t.Errorf("%s: misprediction arm revised clusters only %d times", name, res.Resweeps)
			}
		}
	}
}

// TestRunStreamSpeculationPaysOff checks the speculation scorecard: with a
// warm-capable Exec, the final representatives' sampled tasks should have
// been warmed before reconciliation (overlap fraction 1 on an in-order
// stream of a small app), and the evaluation still matches batch.
func TestRunStreamSpeculationPaysOff(t *testing.T) {
	w := workload.Find("Rodinia/gauss_208")
	c := cfg()
	c.Exec = sampling.NewExec(parallel.NewScheduler(2), nil)
	res, err := runStream(c, CompletePlan(), w, pks.StreamOptions{MinDetailed: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate(cfg(), w)
	if err != nil {
		t.Fatal(err)
	}
	sameEvaluation(t, "speculative", res.Evaluation, want)
	if res.Spec.Launched == 0 {
		t.Fatal("no speculation happened despite a warm-capable Exec")
	}
	// How much of the warm queue drains before reconciliation is a pure
	// timing question (this box's profiler is analytic-fast), so the
	// overlap fraction is only pinned to its range; what must hold is the
	// accounting: some warms were for keys the fold consumed.
	if res.Spec.OverlapFraction < 0 || res.Spec.OverlapFraction > 1 {
		t.Errorf("overlap fraction %v outside [0,1]", res.Spec.OverlapFraction)
	}
	if hit := res.Spec.Launched - res.Spec.Demoted; hit == 0 {
		t.Errorf("every one of %d warms was demoted; expected the full-sim and rep warms to match final keys", res.Spec.Launched)
	}
}

// TestStreamWarmsFollowPlan: the plan decides what a stream warms — its
// sampled passes' tasks (PKS before PKA) for likely representatives, and
// every launch's full-simulation task only when it plans a full pass — and
// the streamed evaluation is the plan's batch one.
func TestStreamWarmsFollowPlan(t *testing.T) {
	w := workload.Find("Rodinia/gauss_208")
	c := cfg()
	c.Exec = sampling.NewExec(parallel.NewScheduler(2), nil)
	pksTask := sampling.SampledTask(c.KernelCapCycles, c.PKP, false)
	pkaTask := sampling.SampledTask(c.KernelCapCycles, c.PKP, true)
	pksOnly := []sampling.TaskMode{sampling.ModePKS}
	for _, tc := range []struct {
		label string
		plan  Plan
		tasks []sampling.KernelTask
		full  bool
	}{
		{"pks", Plan{Passes: pksOnly}, []sampling.KernelTask{pksTask}, false},
		{"pka", Plan{Passes: []sampling.TaskMode{sampling.ModePKA}}, []sampling.KernelTask{pkaTask}, false},
		{"pks+silicon", Plan{Passes: pksOnly, Silicon: true}, []sampling.KernelTask{pksTask}, false},
		{"complete", CompletePlan(), []sampling.KernelTask{pksTask, pkaTask}, true},
	} {
		r, err := NewStreamRunner(c, tc.plan, w.Suite, w.Name, w.N)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.tasks, tc.tasks) || r.warmFull != tc.full {
			t.Errorf("%s: warms tasks %+v, full %v; want %+v, full %v", tc.label, r.tasks, r.warmFull, tc.tasks, tc.full)
		}
		for i := 0; i < w.N; i++ {
			if err := r.Push(w.Kernel(i)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := r.Finish()
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		want, err := tc.plan.Evaluate(cfg(), w, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameEvaluation(t, tc.label, res.Evaluation, want)
		if res.Spec.Launched == 0 {
			t.Errorf("%s: nothing warmed despite an Exec", tc.label)
		}
	}
}

// TestStreamFailureWaitsForWarms: a stream that fails after the advisory
// warm-up has speculative simulations in flight, and every exit waits them
// out — a broken event line in RunEvents, and Finish on a stream that ended
// early.
func TestStreamFailureWaitsForWarms(t *testing.T) {
	w := workload.Find("Rodinia/srad_v1")
	var events bytes.Buffer
	if err := workload.WriteEvents(&events, w); err != nil {
		t.Fatal(err)
	}
	c := cfg()
	c.Exec = sampling.NewExec(parallel.NewScheduler(2), nil)
	speculating := func(label string) {
		t.Helper()
		buf := make([]byte, 1<<20)
		if dump := string(buf[:runtime.Stack(buf, true)]); strings.Contains(dump, "sampling.(*Speculator)") {
			t.Errorf("%s: a speculative warm outlived the stream:\n%s", label, dump)
		}
	}

	// The header, 64 launches (past the 32-record warm-up), a broken event.
	lines := bytes.SplitAfter(events.Bytes(), []byte("\n"))
	broken := append(bytes.Join(lines[:1+64], nil), "{\"launch\":\n"...)
	if _, err := RunEvents(c, CompletePlan(), workload.NewEventDecoder(bytes.NewReader(broken)), nil); err == nil {
		t.Fatal("a broken event stream evaluated")
	}
	speculating("broken event")

	r, err := NewStreamRunner(c, CompletePlan(), w.Suite, w.Name, w.N)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := r.Push(w.Kernel(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Finish(); err == nil {
		t.Fatal("an incomplete stream finished")
	}
	speculating("early finish")
}
