package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/sampling"
	"pka/internal/workload"
)

// pksAudit returns the observer's selection decision records, sequence
// numbers cleared (they interleave with PKP records run to run).
func pksAudit(o *obs.Observer) []obs.AuditRecord {
	recs := o.Audit.Filter("pks", "")
	for i := range recs {
		recs[i].Seq = 0
	}
	return recs
}

// loadDocument writes w as a workload document and loads the workload back
// from it, as pka -workload-file does with what -emit-workload wrote.
func loadDocument(t *testing.T, w *workload.Workload) *workload.Workload {
	t.Helper()
	var doc bytes.Buffer
	if err := workload.WriteJSON(&doc, w); err != nil {
		t.Fatal(err)
	}
	got, err := workload.FromJSON(&doc)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// study evaluates w under plan on a fresh Exec of width par and returns the
// evaluation, its Workload cleared (a loaded document's is rebuilt from its
// entries), the number of tasks the simulator tier resolved and the pks
// audit records.
func study(t *testing.T, label string, plan Plan, w *workload.Workload, par int) (*Evaluation, int64, []obs.AuditRecord) {
	t.Helper()
	c := cfg()
	c.Parallelism = par
	c.Exec = sampling.NewExec(parallel.NewScheduler(par), nil)
	c.Obs = obs.NewObserver()
	m := c.Obs.ExecMetrics()
	c.Exec.SetMetrics(m)
	ev, err := plan.Evaluate(c, w, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ev.Workload = nil
	return ev, m.Tasks[sampling.TierSim].Value(), pksAudit(c.Obs)
}

// studiesAlike checks that the workload name, loaded from its document,
// studies under plan at p = 1 and p = 4 exactly as the catalogue workload
// does at p = 4: the same Evaluation, as many simulator tasks — no warm a
// study of the catalogue workload would not make — and the same selection
// decisions.
func studiesAlike(t *testing.T, name, planLabel string, plan Plan) {
	t.Helper()
	w := workload.Find(name)
	if w == nil {
		t.Fatalf("workload %s not registered", name)
	}
	want, wantSim, wantAudit := study(t, name+"/"+planLabel, plan, w, 4)
	doc := loadDocument(t, w)
	for _, par := range []int{1, 4} {
		label := fmt.Sprintf("%s/%s/p=%d", name, planLabel, par)
		got, gotSim, gotAudit := study(t, label, plan, doc, par)
		if gotSim != wantSim {
			t.Errorf("%s: the loaded document resolved %d simulator tasks, the catalogue workload %d", label, gotSim, wantSim)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: evaluation differs:\ngot:  %+v\nwant: %+v", label, got, want)
		}
		if !reflect.DeepEqual(gotAudit, wantAudit) {
			t.Errorf("%s: pks audit differs:\ngot:  %+v\nwant: %+v", label, gotAudit, wantAudit)
		}
	}
}

// TestDocumentDeterminism: a workload loaded from its document evaluates
// exactly as the catalogue workload does, at any parallelism.
func TestDocumentDeterminism(t *testing.T) {
	for _, name := range []string{"Rodinia/gauss_208", "Rodinia/hots_512"} {
		studiesAlike(t, name, "complete", CompletePlan())
	}
}

// TestDocumentWarmsFollowPlan: the plan alone decides what a workload loaded
// from its document simulates — it warms nothing of its own.
func TestDocumentWarmsFollowPlan(t *testing.T) {
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
		studiesAlike(t, "Rodinia/gauss_208", tc.label, tc.plan)
	}
}

// TestDocumentSimulatesLikeEvaluate: a study of a workload loaded from its
// document resolves exactly the simulator tasks the catalogue workload's
// does — in particular no full-simulation task of a workload whose full
// simulation is infeasible — and returns the same Evaluation.
func TestDocumentSimulatesLikeEvaluate(t *testing.T) {
	for _, name := range []string{"Rodinia/gauss_208", "MLPerf/3dunet_inf"} {
		studiesAlike(t, name, "complete", CompletePlan())
		studiesAlike(t, name, "pka", Plan{Passes: []sampling.TaskMode{sampling.ModePKA}})
	}
}
