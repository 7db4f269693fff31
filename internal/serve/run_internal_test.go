package serve

import (
	"testing"

	"pka/internal/sampling"
)

// A traced study that did not ask for provenance records none: the
// response would never read the recorder. Asking for provenance, or
// installing a recorder, does record.
func TestStudyRecordsFlightOnlyForProvenance(t *testing.T) {
	study := func(req *StudyRequest) *study {
		t.Helper()
		if err := req.Validate(); err != nil {
			t.Fatal(err)
		}
		return newStudy(nil, nil, req)
	}
	if st := study(&StudyRequest{Workload: "Rodinia/gauss_mat4", Trace: true}); st.cfg.Flight != nil {
		t.Error("a traced study without provenance built a flight recorder")
	}
	if st := study(&StudyRequest{Workload: "Rodinia/gauss_mat4", Trace: true, Provenance: true}); st.cfg.Flight == nil {
		t.Error("a study asking for provenance has no flight recorder")
	}
	fr := sampling.NewFlightRecorder()
	req := &StudyRequest{Workload: "Rodinia/gauss_mat4"}
	req.SetFlightRecorder(fr)
	if st := study(req); st.cfg.Flight != fr {
		t.Error("a study dropped the caller's flight recorder")
	}
}
