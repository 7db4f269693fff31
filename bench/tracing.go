package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"pka/internal/artifact"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/sampling"
)

// Tracks the benchmark's own spans live on, beside the program's.
const (
	trackStudy    = "bench:study"    // one span per traced study, arg "study" = its id
	trackArtifact = "bench:artifact" // store open/close inside a study
	trackReplay   = "bench:replay"   // one span per layer-replay call, arg "parent" = the replay's id
)

// Program tracks whose spans are children of a study span. core.Evaluate
// names a track after the phase and the span after the workload.
var phaseTracks = []string{"silicon", "pks-select", "full-sim", "sampled:pks", "sampled:pka", trackArtifact}

// tracing is the traced pass's observe-only wiring: the observer handed to
// the program through core.Config.Obs / serve.Options.Obs, the benchmark's
// own tracks on the same tracer (so one Chrome trace holds both), and the
// sums the per-layer metrics are computed from. A nil *tracing means an
// untraced pass; begin and span are nil-safe so studies call them either way.
type tracing struct {
	o       *obs.Observer
	studies int // traced studies so far; the next study's id

	// Exec-ladder provenance of the traced studies: service time by
	// "phase/tier", and every task's scheduler queue wait.
	service map[string]time.Duration
	tasks   map[string]int
	waitsMs []float64
	// Artifact-store counters of the stores the traced studies used.
	store artifact.Stats
	// Simulated warp instructions of the traced studies' sampled runs.
	pksWarpInstrs, pkaWarpInstrs int64

	// busy and ops are the layer replay's (and the probe's) timings.
	busy map[string]time.Duration
	ops  map[string]int
	// perOp holds replay timings reported as a median over operations.
	perOp map[string][]float64
}

func newTracing() *tracing {
	o := obs.NewObserver()
	o.Audit = nil // decision records are not a layer cost this benchmark reads
	return &tracing{
		o:       o,
		service: map[string]time.Duration{},
		tasks:   map[string]int{},
		busy:    map[string]time.Duration{},
		ops:     map[string]int{},
		perOp:   map[string][]float64{},
	}
}

// observer returns the program-side observer, nil when untraced.
func (tr *tracing) observer() *obs.Observer {
	if tr == nil {
		return nil
	}
	return tr.o
}

// begin opens the span around one traced study and installs the pool
// observer for its duration; the caller ends the span and calls done.
func (tr *tracing) begin(name string) *obs.Span {
	if tr == nil {
		return nil
	}
	parallel.SetObserver(tr.o.PoolMetrics())
	id := tr.studies
	tr.studies++
	return tr.o.Tracer.Track(trackStudy).Start(name, obs.Arg{Key: "study", Val: id})
}

// done closes what begin opened.
func (tr *tracing) done(sp *obs.Span) {
	if tr == nil {
		return
	}
	sp.End()
	parallel.SetObserver(nil)
}

// span opens a benchmark span on track, nil when untraced.
func (tr *tracing) span(track, name string) *obs.Span {
	if tr == nil {
		return nil
	}
	return tr.o.Tracer.Track(track).Start(name)
}

// flight returns a fresh provenance recorder for one traced study.
func (tr *tracing) flight() *sampling.FlightRecorder {
	if tr == nil {
		return nil
	}
	return sampling.NewFlightRecorder()
}

// wire points an Exec's tier counters at the observer's registry.
func (tr *tracing) wire(ex *sampling.Exec) {
	if tr != nil {
		ex.SetMetrics(tr.o.ExecMetrics())
	}
}

// absorbFlight folds one study's kernel-task provenance into the sums.
func (tr *tracing) absorbFlight(fr *sampling.FlightRecorder) {
	if tr == nil {
		return
	}
	for _, e := range fr.Entries() {
		key := e.Phase + "/" + e.Tier.String()
		tr.service[key] += time.Duration(e.ServiceNs)
		tr.tasks[key]++
		tr.waitsMs = append(tr.waitsMs, float64(e.WaitNs)/1e6)
	}
}

// absorbStore adds a store's counters since prev (the zero Stats for a
// store the study opened itself).
func (tr *tracing) absorbStore(now, prev artifact.Stats) {
	if tr == nil {
		return
	}
	tr.store.Hits += now.Hits - prev.Hits
	tr.store.Misses += now.Misses - prev.Misses
	tr.store.Writes += now.Writes - prev.Writes
	tr.store.SizeBytes += now.SizeBytes - prev.SizeBytes
}

// time runs fn as one layer-replay call covering n operations.
func (tr *tracing) time(name string, n int, fn func()) {
	sp := tr.o.Tracer.Track(trackReplay).Start(name, obs.Arg{Key: "parent", Val: "replay"}, obs.Arg{Key: "ops", Val: n})
	t0 := time.Now()
	fn()
	tr.busy[name] += time.Since(t0)
	tr.ops[name] += n
	sp.End()
}

// serviceOf sums the ladder's service time over the keys sel accepts.
func (tr *tracing) serviceOf(sel func(phase, tier string) bool) time.Duration {
	var sum time.Duration
	for key, d := range tr.service {
		phase, tier, _ := strings.Cut(key, "/")
		if sel(phase, tier) {
			sum += d
		}
	}
	return sum
}

func (tr *tracing) busyMs(name string) float64 { return ms(tr.busy[name]) }

// usPerOp is a replay call's mean microseconds per operation.
func (tr *tracing) usPerOp(name string) float64 {
	return ratio(us(tr.busy[name]), float64(tr.ops[name]))
}

// span is one complete event read back from the Chrome trace.
type span struct {
	track, name string
	ts, dur     int64 // microseconds
}

func (s span) end() int64 { return s.ts + s.dur }

// readTrace renders the observer's tracer as a Chrome trace, writes it to
// path when one is given, and parses the complete events back: the
// per-layer numbers come from the same bytes a user would open in a trace
// viewer.
func (tr *tracing) readTrace(path string) ([]span, error) {
	var buf bytes.Buffer
	if err := tr.o.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	if path != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	return parseTrace(buf.Bytes())
}

func parseTrace(raw []byte) ([]span, error) {
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int64  `json:"tid"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("chrome trace: %w", err)
	}
	tracks := map[int64]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			tracks[ev.Tid] = ev.Args.Name
		}
	}
	var spans []span
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans = append(spans, span{track: tracks[ev.Tid], name: ev.Name, ts: ev.Ts, dur: ev.Dur})
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].ts < spans[j].ts })
	return spans, nil
}

// phaseTimes attributes the traced studies' wall time. For every study
// span it finds the phase spans it contains; a phase's busy time is the
// sum of its spans, and the studies' self time is their duration minus
// the union of their children. All in microseconds.
type phaseTimes struct {
	studies int
	wall    int64
	self    int64
	byTrack map[string]int64
	spans   map[string]int
}

func attribute(spans []span) phaseTimes {
	pt := phaseTimes{byTrack: map[string]int64{}, spans: map[string]int{}}
	isPhase := map[string]bool{}
	for _, t := range phaseTracks {
		isPhase[t] = true
	}
	var phases []span
	for _, s := range spans {
		if isPhase[s.track] {
			phases = append(phases, s)
		}
	}
	next := 0 // phases and studies are both in start order, and studies do not overlap
	for _, st := range spans {
		if st.track != trackStudy {
			continue
		}
		pt.studies++
		pt.wall += st.dur
		for next < len(phases) && phases[next].ts < st.ts {
			next++
		}
		var covered, reach int64 = 0, st.ts
		for ; next < len(phases) && phases[next].end() <= st.end()+1; next++ {
			c := phases[next]
			pt.byTrack[c.track] += c.dur
			pt.spans[c.track]++
			if c.end() > reach {
				covered += c.end() - max(c.ts, reach)
				reach = c.end()
			}
		}
		pt.self += st.dur - covered
	}
	return pt
}

// perStudyMs converts a microsecond sum over the traced studies into mean
// milliseconds per study.
func (pt phaseTimes) perStudyMs(us int64) float64 {
	return ratio(float64(us)/1e3, float64(pt.studies))
}

// printPhaseTable writes the layers block as a table whose rows add up to
// the traced studies' mean wall time.
func printPhaseTable(w io.Writer, layers map[string]float64) {
	wall := layers["study_wall_ms"]
	if wall == 0 {
		return
	}
	names := make([]string, 0, len(layers))
	for n := range layers {
		if n != "study_wall_ms" {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	fmt.Fprintf(w, "  phase table (mean ms per traced study; rows add up to the study)\n")
	var sum float64
	for _, n := range names {
		sum += layers[n]
		fmt.Fprintf(w, "    %-22s %12.4f ms %6.1f%%\n", n, layers[n], 100*layers[n]/wall)
	}
	fmt.Fprintf(w, "    %-22s %12.4f ms %6.1f%%\n", "sum", sum, 100*sum/wall)
	fmt.Fprintf(w, "    %-22s %12.4f ms\n", "study wall", wall)
}
