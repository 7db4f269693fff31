package core

import (
	"bytes"
	"reflect"
	"testing"

	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/sampling"
	"pka/internal/stats"
	"pka/internal/workload"
)

// sameEvaluation compares two evaluations field by field, skipping the
// Workload pointer (an event stream's run rebuilds its workload from the
// events, so the generator closures differ while every kernel they serve is
// equal).
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

// shuffledEvents writes w as an event stream whose launches arrive shuffled
// within consecutive blocks of the given size.
func shuffledEvents(t *testing.T, w *workload.Workload, block int) *bytes.Buffer {
	t.Helper()
	var in bytes.Buffer
	if err := workload.WriteEvents(&in, w); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(in.Bytes(), []byte("\n"))
	events := lines[1 : 1+w.N]
	rng := stats.NewRNG(13)
	for base := 0; base < w.N; base += block {
		end := min(base+block, w.N)
		for i := end - 1; i > base; i-- {
			j := base + rng.Intn(i-base+1)
			events[i], events[j] = events[j], events[i]
		}
	}
	return bytes.NewBuffer(bytes.Join(lines, nil))
}

// TestStreamDeterminism pins the tentpole invariant: the streaming
// pipeline's output is byte-identical to batch Evaluate at any parallelism
// and across event arrival orders within the reorder window.
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

		for _, arm := range []struct {
			label string
			par   int
			shuf  int
		}{
			{"in-order/p=1", 1, 0},
			{"in-order/p=4", 4, 0},
			{"shuffled/p=4", 4, 16},
		} {
			c := cfg()
			c.Parallelism = arm.par
			c.Exec = sampling.NewExec(parallel.NewScheduler(arm.par), nil)
			c.Obs = obs.NewObserver()
			var got *Evaluation
			if arm.shuf > 0 {
				got, err = RunEvents(c, CompletePlan(), workload.NewEventDecoder(shuffledEvents(t, w, arm.shuf)), nil)
			} else {
				got, err = RunStream(c, CompletePlan(), w)
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", name, arm.label, err)
			}
			sameEvaluation(t, name+"/"+arm.label, got, want)
			// One selection per study on either path, so the decision trail
			// agrees record for record.
			if got := pksAudit(c.Obs); !reflect.DeepEqual(got, wantAudit) {
				t.Errorf("%s/%s: pks audit differs from batch:\ngot:  %+v\nwant: %+v", name, arm.label, got, wantAudit)
			}
		}
	}
}

// TestStreamWarmsFollowPlan: the plan alone decides what an event stream
// simulates — a stream warms nothing of its own, so under each plan
// RunEvents resolves as many simulator tasks as the plan's batch Evaluate,
// reports every event and the batch selection's detailed count to intake,
// and returns the plan's batch evaluation.
func TestStreamWarmsFollowPlan(t *testing.T) {
	w := workload.Find("Rodinia/gauss_208")
	var events bytes.Buffer
	if err := workload.WriteEvents(&events, w); err != nil {
		t.Fatal(err)
	}
	pksOnly := []sampling.TaskMode{sampling.ModePKS}
	for _, tc := range []struct {
		label string
		plan  Plan
	}{
		{"pks", Plan{Passes: pksOnly}},
		{"pka", Plan{Passes: []sampling.TaskMode{sampling.ModePKA}}},
		{"pks+silicon", Plan{Passes: pksOnly, Silicon: true}},
		{"complete", CompletePlan()},
	} {
		run := func(eval func(Config) (*Evaluation, error)) (*Evaluation, int64) {
			t.Helper()
			c := cfg()
			c.Exec = sampling.NewExec(parallel.NewScheduler(2), nil)
			m := obs.NewObserver().ExecMetrics()
			c.Exec.SetMetrics(m)
			ev, err := eval(c)
			if err != nil {
				t.Fatalf("%s: %v", tc.label, err)
			}
			return ev, m.Tasks[sampling.TierSim].Value()
		}
		want, wantSim := run(func(c Config) (*Evaluation, error) { return tc.plan.Evaluate(c, w, nil) })
		gotEvents, gotDetailed := -1, -1
		got, gotSim := run(func(c Config) (*Evaluation, error) {
			dec := workload.NewEventDecoder(bytes.NewReader(events.Bytes()))
			return RunEvents(c, tc.plan, dec, func(events, detailed int) { gotEvents, gotDetailed = events, detailed })
		})
		if gotSim != wantSim {
			t.Errorf("%s: the stream resolved %d simulator tasks, Evaluate %d", tc.label, gotSim, wantSim)
		}
		if gotEvents != w.N || gotDetailed != want.Selection.DetailedKernels {
			t.Errorf("%s: intake saw %d events, %d detailed; want %d, %d", tc.label, gotEvents, gotDetailed, w.N, want.Selection.DetailedKernels)
		}
		sameEvaluation(t, tc.label, got, want)
	}
}

// TestStreamSimulatesLikeEvaluate: a streamed study resolves exactly the
// simulator tasks the plan's batch evaluation does — no warm a batch study
// would not make, in particular no full-simulation task of a workload whose
// full simulation is infeasible — and returns the same Evaluation.
func TestStreamSimulatesLikeEvaluate(t *testing.T) {
	pkaOnly := Plan{Passes: []sampling.TaskMode{sampling.ModePKA}}
	for _, name := range []string{"Rodinia/gauss_208", "MLPerf/3dunet_inf"} {
		w := workload.Find(name)
		if w == nil {
			t.Fatalf("workload %s not registered", name)
		}
		for _, tc := range []struct {
			label string
			plan  Plan
		}{{"complete", CompletePlan()}, {"pka", pkaOnly}} {
			run := func(eval func(Config) (*Evaluation, error)) (*Evaluation, int64) {
				t.Helper()
				c := cfg()
				c.Exec = sampling.NewExec(parallel.NewScheduler(2), nil)
				m := obs.NewObserver().ExecMetrics()
				c.Exec.SetMetrics(m)
				ev, err := eval(c)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, tc.label, err)
				}
				return ev, m.Tasks[sampling.TierSim].Value()
			}
			want, wantSim := run(func(c Config) (*Evaluation, error) { return tc.plan.Evaluate(c, w, nil) })
			got, gotSim := run(func(c Config) (*Evaluation, error) { return RunStream(c, tc.plan, w) })
			if gotSim != wantSim {
				t.Errorf("%s/%s: the stream resolved %d simulator tasks, Evaluate %d", name, tc.label, gotSim, wantSim)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: streamed evaluation differs from Evaluate:\ngot:  %+v\nwant: %+v", name, tc.label, got, want)
			}
		}
	}
}
