package core

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
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

// eventStream writes w as an event stream whose event lines (the header
// stays first) pass through edit; nil keeps them in launch order.
func eventStream(t *testing.T, w *workload.Workload, edit func(events [][]byte) [][]byte) *workload.EventDecoder {
	t.Helper()
	var in bytes.Buffer
	if err := workload.WriteEvents(&in, w); err != nil {
		t.Fatal(err)
	}
	if edit == nil {
		return workload.NewEventDecoder(&in)
	}
	lines := bytes.SplitAfter(in.Bytes(), []byte("\n"))
	events := edit(slices.Clone(lines[1 : 1+w.N]))
	return workload.NewEventDecoder(io.MultiReader(bytes.NewReader(lines[0]), bytes.NewReader(bytes.Join(events, nil))))
}

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

// TestStreamDeterminism pins the tentpole invariant: the streaming
// pipeline's output is byte-identical to batch Evaluate at any parallelism
// and across event arrival orders.
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
			got, err := RunEvents(c, CompletePlan(), eventStream(t, w, edit), nil)
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

// TestStreamAcceptsReversedEvents: arrival order is free. fdtd2d's 1 500
// events, last launch first, select exactly what the batch study selects,
// and every event is counted.
func TestStreamAcceptsReversedEvents(t *testing.T) {
	w := mustFind(t, "Polybench/fdtd2d")
	plan := Plan{Passes: []sampling.TaskMode{sampling.ModePKA}}
	want, err := plan.Evaluate(cfg(), w, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg()
	c.Obs = obs.NewObserver()
	reversed := func(events [][]byte) [][]byte { slices.Reverse(events); return events }
	got, err := RunEvents(c, plan, eventStream(t, w, reversed), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Selection, want.Selection) {
		t.Errorf("reversed stream's selection differs from batch:\ngot:  %+v\nwant: %+v", got.Selection, want.Selection)
	}
	if n := c.Obs.StreamMetrics().Events.Value(); n != int64(w.N) {
		t.Errorf("pka_stream_events_total = %d, want %d", n, w.N)
	}
}

// TestStreamRejectsBadEvents: a stream that repeats a launch or leaves one
// out is an error, not a study.
func TestStreamRejectsBadEvents(t *testing.T) {
	w := mustFind(t, "Rodinia/gauss_208")
	for _, tc := range []struct {
		label, want string
		edit        func([][]byte) [][]byte
	}{
		{"duplicate launch", "duplicate launch 0", func(ev [][]byte) [][]byte { return append(ev[:1:1], ev...) }},
		{"missing launch", fmt.Sprintf("1 of %d launches missing", w.N), func(ev [][]byte) [][]byte { return ev[1:] }},
	} {
		_, err := RunEvents(cfg(), CompletePlan(), eventStream(t, w, tc.edit), nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.label, err, tc.want)
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
				ev.Workload = nil // the stream's is rebuilt from its events
				return ev, m.Tasks[sampling.TierSim].Value()
			}
			want, wantSim := run(func(c Config) (*Evaluation, error) { return tc.plan.Evaluate(c, w, nil) })
			got, gotSim := run(func(c Config) (*Evaluation, error) { return RunEvents(c, tc.plan, eventStream(t, w, nil), nil) })
			if gotSim != wantSim {
				t.Errorf("%s/%s: the stream resolved %d simulator tasks, Evaluate %d", name, tc.label, gotSim, wantSim)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: streamed evaluation differs from Evaluate:\ngot:  %+v\nwant: %+v", name, tc.label, got, want)
			}
		}
	}
}
