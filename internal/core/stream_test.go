package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/sampling"
	"pka/internal/stats"
	"pka/internal/workload"
)

// sameEvaluation compares two evaluations field by field, skipping the
// Workload pointer (a workload loaded from events is rebuilt from them, so
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
	if got.FullSimHours != want.FullSimHours { // Full, its ErrorPct included, is compared above
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

// loadEvents writes w as an event stream whose event lines (the header
// stays first) pass through edit — nil keeps them in launch order — and
// loads the workload back from it, as pka -workload-file and /v1/stream do.
func loadEvents(t *testing.T, w *workload.Workload, edit func(events [][]byte) [][]byte) *workload.Workload {
	t.Helper()
	var in bytes.Buffer
	if err := workload.WriteEvents(&in, w); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(in.Bytes(), []byte("\n"))
	events := lines[1 : 1+w.N]
	if edit != nil {
		events = edit(slices.Clone(events))
	}
	got, err := workload.Load(bytes.NewReader(bytes.Join(append(lines[:1:1], events...), nil)))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// reversed puts the events last launch first.
func reversed(events [][]byte) [][]byte { slices.Reverse(events); return events }

// shuffledWithin shuffles events within consecutive blocks of the given size.
func shuffledWithin(block int) func([][]byte) [][]byte {
	return func(events [][]byte) [][]byte {
		rng := stats.NewRNG(13)
		for base := 0; base < len(events); base += block {
			end := min(base+block, len(events))
			for i := end - 1; i > base; i-- {
				j := base + rng.Intn(i-base+1)
				events[i], events[j] = events[j], events[i]
			}
		}
		return events
	}
}

// TestStreamDeterminism: a workload loaded from its event stream evaluates
// exactly as the catalogue workload does, at any parallelism and across
// event arrival orders.
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
			var edit func([][]byte) [][]byte
			if arm.shuf > 0 {
				edit = shuffledWithin(arm.shuf)
			}
			got, err := Evaluate(c, loadEvents(t, w, edit))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, arm.label, err)
			}
			sameEvaluation(t, name+"/"+arm.label, got, want)
			// One selection per study either way, so the decision trail
			// agrees record for record.
			if got := pksAudit(c.Obs); !reflect.DeepEqual(got, wantAudit) {
				t.Errorf("%s/%s: pks audit differs from batch:\ngot:  %+v\nwant: %+v", name, arm.label, got, wantAudit)
			}
		}
	}
}

// TestStreamWarmsFollowPlan: the plan alone decides what a workload loaded
// from events simulates — it warms nothing of its own, so under each plan,
// with its events in order or reversed, its evaluation resolves as many
// simulator tasks as the catalogue workload's and returns the same
// Evaluation.
func TestStreamWarmsFollowPlan(t *testing.T) {
	w := workload.Find("Rodinia/gauss_208")
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
		want, wantSim := countSim(t, tc.label, tc.plan, w)
		for _, order := range []struct {
			label string
			edit  func([][]byte) [][]byte
		}{{"in order", nil}, {"reversed", reversed}} {
			got, gotSim := countSim(t, tc.label, tc.plan, loadEvents(t, w, order.edit))
			if gotSim != wantSim {
				t.Errorf("%s/%s: the loaded stream resolved %d simulator tasks, the catalogue workload %d", tc.label, order.label, gotSim, wantSim)
			}
			sameEvaluation(t, tc.label+"/"+order.label, got, want)
		}
	}
}

// countSim evaluates w under plan on a fresh two-wide Exec and returns the
// evaluation, its Workload cleared, with the number of tasks the simulator
// tier resolved.
func countSim(t *testing.T, label string, plan Plan, w *workload.Workload) (*Evaluation, int64) {
	t.Helper()
	c := cfg()
	c.Exec = sampling.NewExec(parallel.NewScheduler(2), nil)
	m := obs.NewObserver().ExecMetrics()
	c.Exec.SetMetrics(m)
	ev, err := plan.Evaluate(c, w, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ev.Workload = nil // a loaded stream's is rebuilt from its events
	return ev, m.Tasks[sampling.TierSim].Value()
}

// TestStreamSimulatesLikeEvaluate: a study of a workload loaded from its
// events, in order or reversed, resolves exactly the simulator tasks the
// catalogue workload's does — no warm a study of it would not make, in
// particular no full-simulation task of a workload whose full simulation is
// infeasible — and returns the same Evaluation.
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
			label := name + "/" + tc.label
			want, wantSim := countSim(t, label, tc.plan, w)
			for _, edit := range []func([][]byte) [][]byte{nil, reversed} {
				got, gotSim := countSim(t, label, tc.plan, loadEvents(t, w, edit))
				if gotSim != wantSim {
					t.Errorf("%s (reversed %v): the loaded stream resolved %d simulator tasks, the catalogue workload %d", label, edit != nil, gotSim, wantSim)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s (reversed %v): evaluation differs:\ngot:  %+v\nwant: %+v", label, edit != nil, got, want)
				}
			}
		}
	}
}
