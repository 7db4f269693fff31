package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pka/internal/artifact"
	"pka/internal/core"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/sampling"
	"pka/internal/serve"
	"pka/internal/workload"
)

const (
	serveClosedName = "serve_closed"
	serveClosedWhy  = "2 keep-alive clients against an in-process pkaserve, 75 % primed repeats and 25 % novel studies: decode, fair queue, runner pool, mem tier, disk and marshalling under concurrency"
	// serveWidth is the client count, the runner count and the scheduler
	// width: the reference box's two cores.
	serveWidth = 2
	// One round of requests is serveNovelEach novel studies of every
	// novel workload and three times as many repeats.
	serveNovelEach = 4
	// serveSegmentRounds is how many rounds go out between two calibrator
	// passes, ≈ 1 s: each boundary idles one client for at most one study.
	serveSegmentRounds = 1
)

// request is one planned study request.
type request struct {
	body  []byte
	novel bool
	entry int // index into the catalogue (repeat) or the novel list
}

// serveRoundSize is how many requests one round holds.
func serveRoundSize(novel []string) int { return 4 * serveNovelEach * len(novel) }

// serveSequence plans rounds first, first+1, ... of requests. Every round
// holds the same mix, exact and not sampled — a quarter novel, spread
// evenly over the novel list, the rest repeats apportioned over the
// catalogue by Zipf weight 1/rank — so every seed and every round carries
// the same work and only the order inside a round, which the seed
// shuffles, differs. The j-th novel request of round r asks for PKP
// threshold 0.25 + (r·novelPerRound + j)·1e-7: a content key nobody has
// cached, at unchanged simulation cost.
func serveSequence(seed uint64, first, rounds int, catalogue, novel []string) []request {
	nNovel := serveNovelEach * len(novel)
	weights := make([]float64, len(catalogue))
	for r := range weights {
		weights[r] = 1 / float64(r+1)
	}
	var mix []request
	for entry, count := range apportion(3*nNovel, weights) {
		body := []byte(`{"tenant":"prod","workload":"` + catalogue[entry] + `","mode":"pka"}`)
		for c := 0; c < count; c++ {
			mix = append(mix, request{body: body, entry: entry})
		}
	}
	for j := 0; j < nNovel; j++ {
		mix = append(mix, request{novel: true, entry: j % len(novel)})
	}
	reqs := make([]request, 0, rounds*len(mix))
	for r := first; r < first+rounds; r++ {
		for _, i := range roundOrder(seed, r, len(mix)) {
			req := mix[i]
			if req.novel {
				j := i - 3*nNovel
				s := strconv.FormatFloat(0.25+float64(r*nNovel+j)*1e-7, 'g', -1, 64)
				req.body = []byte(`{"tenant":"batch","workload":"` + novel[req.entry] + `","mode":"pka","s":` + s + `}`)
			}
			reqs = append(reqs, req)
		}
	}
	return reqs
}

// apportion splits total into whole counts proportional to weights by the
// largest-remainder method.
func apportion(total int, weights []float64) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := total
	for i, w := range weights {
		exact := float64(total) * w / sum
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for i := 0; i < left; i++ {
		counts[order[i]]++
	}
	return counts
}

// serveEnv is one running study service and what its responses are
// checked against.
type serveEnv struct {
	dir    string
	store  *artifact.Store
	exec   *sampling.Exec
	srv    *serve.Server
	hs     *http.Server
	served chan error // hs.Serve's return
	client *http.Client
	url    string

	catalogue, novel []string
	refs             [][]byte // reference response bytes per catalogue entry
	ks               []int    // the catalogue's K per novel entry
	outcomes         []outcome

	// The traced server's Runner hook: off during warm-up.
	observing atomic.Bool
	mu        sync.Mutex
	runMs     []float64 // runner busy time per measured request
}

// startServe primes a fresh store through direct serve.Run calls, records
// the reference responses, starts the service on a loopback listener and
// sends it warm-up requests. tr, when set, makes it the traced server: the
// observer goes in through serve.Options.Obs, and once the warm-up is over
// a Runner hook hands it to every study, times the study and keeps its
// provenance, so the registry holds the measured pass and nothing else.
func startServe(sc *scale, o options, tr *tracing) (*serveEnv, error) {
	if _, err := find(sc.sim); err != nil {
		return nil, err
	}
	e := &serveEnv{catalogue: sc.sim, novel: sc.novel, served: make(chan error, 1)}
	var err error
	if e.dir, err = os.MkdirTemp(o.tmp, "serve-"); err != nil {
		return nil, err
	}
	if e.store, err = artifact.Open(e.dir, artifact.Options{}); err != nil {
		os.RemoveAll(e.dir)
		return nil, err
	}
	e.exec = sampling.NewExec(parallel.NewScheduler(serveWidth), e.store)
	fail := func(err error) (*serveEnv, error) {
		e.store.Close()
		os.RemoveAll(e.dir)
		return nil, err
	}

	kOf := map[string]int{}
	for _, name := range e.catalogue {
		// The reference bytes are what the handler will write: the
		// response through json.Encoder. A second run with silicon on
		// gives the study's error against ground truth.
		resp, err := serve.Run(e.exec, nil, &serve.StudyRequest{Tenant: "prod", Workload: name, Mode: "pka"})
		if err != nil {
			return fail(err)
		}
		var ref bytes.Buffer
		if err := json.NewEncoder(&ref).Encode(resp); err != nil {
			return fail(err)
		}
		e.refs = append(e.refs, ref.Bytes())
		kOf[name] = resp.K
		truth, err := serve.Run(e.exec, nil, &serve.StudyRequest{Tenant: "prod", Workload: name, Mode: "pka", Silicon: true})
		if err != nil {
			return fail(err)
		}
		h := fnv.New64a()
		h.Write(ref.Bytes())
		e.outcomes = append(e.outcomes, outcome{
			digest:   h.Sum64(),
			errPct:   truth.ErrorPct,
			fullWork: float64(core.TotalWarpWork(dev, workload.Find(name))),
			simWork:  float64(resp.SimWarpInstrs),
		})
	}
	for _, name := range e.novel {
		k, ok := kOf[name]
		if !ok {
			return fail(fmt.Errorf("novel workload %q is not in the catalogue", name))
		}
		e.ks = append(e.ks, k)
	}

	opts := serve.Options{
		Exec:          e.exec,
		Workers:       serveWidth,
		TenantWeights: map[string]int{"prod": 3, "batch": 1},
	}
	if tr != nil {
		// The latency report is to cover exactly the traced requests.
		opts.LatencyWindow = sc.nServe.tracedRounds * serveRoundSize(sc.novel)
		opts.Obs = tr.o
		opts.Runner = func(req *serve.StudyRequest) (*serve.StudyResponse, error) {
			if !e.observing.Load() {
				return serve.Run(e.exec, nil, req)
			}
			fr := sampling.NewFlightRecorder()
			req.SetFlightRecorder(fr)
			t0 := time.Now()
			resp, err := serve.Run(e.exec, tr.o, req)
			d := time.Since(t0)
			e.mu.Lock()
			tr.absorbFlight(fr)
			e.runMs = append(e.runMs, ms(d))
			e.mu.Unlock()
			return resp, err
		}
	}
	e.srv = serve.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go func() { e.served <- e.hs.Serve(ln) }()
	e.url = "http://" + ln.Addr().String() + serve.StudyPath
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveWidth}}

	// A fresh server's first requests run slow; the warm-up takes them.
	warm, _ := e.fire(serveSequence(1, 0, sc.nServe.warm, e.catalogue, e.novel), nil, nil)
	for _, r := range warm {
		if r.problem != "" {
			e.close()
			return nil, fmt.Errorf("warm-up request: %s", r.problem)
		}
	}
	if tr != nil {
		tr.wire(e.exec)
		e.observing.Store(true)
	}
	return e, nil
}

// close drains the service, shuts the listener and the connections down,
// waits for the serving goroutine, and removes the store.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Drain(ctx)
	e.client.CloseIdleConnections()
	err = firstErr(err, e.hs.Shutdown(ctx))
	if serr := <-e.served; serr != http.ErrServerClosed {
		err = firstErr(err, serr)
	}
	err = firstErr(err, e.store.Close())
	os.RemoveAll(e.dir)
	return err
}

// reply is what one request came back with.
type reply struct {
	ms      float64
	problem string // "" = the response was correct
}

// fire sends reqs from serveWidth closed-loop clients, each taking the
// next request in index order once its previous one has been answered,
// and checks every response: a repeat must equal its reference bytes, a
// novel study must come back 200 with the catalogue's K. The marks, read
// on cal's clock, are the round boundaries: the start, and every time
// another round's worth of requests has completed.
func (e *serveEnv) fire(reqs []request, tr *tracing, cal *calibrator) ([]reply, []mark) {
	out := make([]reply, len(reqs))
	perRound := serveRoundSize(e.novel)
	marks := make([]mark, len(reqs)/perRound+1)
	marks[0] = cal.mark()
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveWidth; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			track := fmt.Sprintf("bench:client-%d", c)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				var sp *obs.Span
				if tr != nil {
					sp = tr.o.Tracer.Track(track).Start("request", obs.Arg{Key: "study", Val: i}, obs.Arg{Key: "novel", Val: reqs[i].novel})
				}
				t0 := time.Now()
				problem := e.post(reqs[i])
				out[i] = reply{ms: ms(time.Since(t0)), problem: problem}
				sp.End()
				if n := int(done.Add(1)); n%perRound == 0 {
					marks[n/perRound] = cal.mark()
				}
			}
		}(c)
	}
	wg.Wait()
	return out, marks
}

// post sends one request and returns what was wrong with the response.
func (e *serveEnv) post(r request) string {
	resp, err := e.client.Post(e.url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return err.Error()
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err.Error()
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if !r.novel {
		if !bytes.Equal(body, e.refs[r.entry]) {
			return fmt.Sprintf("%s: response differs from its reference bytes", e.catalogue[r.entry])
		}
		return ""
	}
	var sr serve.StudyResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return err.Error()
	}
	if sr.Workload != e.novel[r.entry] || sr.K != e.ks[r.entry] {
		return fmt.Sprintf("%s: novel response has workload %q K %d, catalogue K %d", e.novel[r.entry], sr.Workload, sr.K, e.ks[r.entry])
	}
	return ""
}

// book folds replies into the ledger in request order, each under its
// class and workload, and returns the latencies by class.
func (e *serveEnv) book(l *ledger, reqs []request, replies []reply) (repeat, novel []float64) {
	for i, r := range replies {
		l.attempted++
		if r.problem != "" {
			l.fail("request %d: %s", i, r.problem)
			continue
		}
		if reqs[i].novel {
			novel = append(novel, r.ms)
			name := "novel:" + e.novel[reqs[i].entry]
			l.ms[name] = append(l.ms[name], r.ms)
		} else {
			repeat = append(repeat, r.ms)
			name := "repeat:" + e.catalogue[reqs[i].entry]
			l.ms[name] = append(l.ms[name], r.ms)
		}
	}
	return repeat, novel
}

// runServe is the serve_closed workload.
func runServe(o options, sc *scale) (*report, error) {
	rep := &report{Workload: serveClosedName, Seed: o.seed, Traced: o.traced}
	l := newLedger()
	if o.traced {
		vals, layers, err := tracedServe(o, sc, l)
		if err != nil {
			return nil, err
		}
		rep.Layers = layers
		finish(rep, l, vals)
		return rep, nil
	}

	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close() // an unmap at the end of a run has nothing left to report to
	cal.tick()
	e, setup, err := repeatSetup(sc.nServe.setups, cal,
		func() (*serveEnv, error) { return startServe(sc, o, nil) },
		(*serveEnv).close)
	if err != nil {
		return nil, err
	}
	for i, name := range e.catalogue {
		l.check("serve:"+name, e.outcomes[i])
	}
	// The requests go out a few rounds at a time, so that the calibrator
	// gets its passes while both clients are idle; a pass beside a running
	// study would time this process's own load.
	reqs := serveSequence(o.seed, sc.nServe.warm, sc.nServe.rounds, e.catalogue, e.novel)
	per := serveSegmentRounds * serveRoundSize(e.novel)
	for at := 0; at < len(reqs); at += per {
		seg := reqs[at:min(at+per, len(reqs))]
		replies, marks := e.fire(seg, nil, cal)
		for i := 1; i < len(marks); i++ {
			l.round(marks[i-1], marks[i])
		}
		e.book(l, seg, replies)
		cal.tick()
	}
	if err := e.close(); err != nil {
		return nil, err
	}
	rep.HostSlowdown = cal.slowdown()
	vals, uncalibrated := endToEndMetrics(setup, l, rep.HostSlowdown)
	rep.Uncalibrated = uncalibrated
	finish(rep, l, vals)
	return rep, nil
}

// tracedServe runs the traced request count against an untraced service
// and then against a traced one, each set up from scratch, so the tracing
// overhead compares two otherwise identical passes inside one process.
func tracedServe(o options, sc *scale, l *ledger) (map[string]float64, map[string]float64, error) {
	reqs := serveSequence(o.seed, sc.nServe.warm, sc.nServe.tracedRounds, sc.sim, sc.novel)
	from := heapNow()

	plain, err := startServe(sc, o, nil)
	if err != nil {
		return nil, nil, err
	}
	for i, name := range plain.catalogue {
		l.check("serve:"+name, plain.outcomes[i])
	}
	plainReplies, _ := plain.fire(reqs, nil, nil)
	if err := plain.close(); err != nil {
		return nil, nil, err
	}
	plainRepeat, plainNovel := plain.book(l, reqs, plainReplies)

	tr := newTracing()
	e, err := startServe(sc, o, tr)
	if err != nil {
		return nil, nil, err
	}
	for i, name := range e.catalogue {
		l.check("serve:"+name, e.outcomes[i]) // the traced service's references must equal the untraced one's
	}
	parallel.SetObserver(tr.o.PoolMetrics())
	defer parallel.SetObserver(nil)
	storeBefore := e.store.Stats()
	replies, marks := e.fire(reqs, tr, nil)
	wall := marks[len(marks)-1].wall - marks[0].wall
	tr.absorbStore(e.store.Stats(), storeBefore)
	lat := e.srv.LatencyReport()
	health := e.srv.Health()
	runMs := e.runMs
	if err := e.close(); err != nil {
		return nil, nil, err
	}
	repeat, novel := e.book(l, reqs, replies)

	vals := map[string]float64{}
	registryMetrics(vals, tr)
	runtimeMetrics(vals, from, heapNow(), l.attempted)
	all := append(append([]float64(nil), repeat...), novel...)
	vals["obs.trace_overhead_pct"] = 100 * (ratio(p50(all), p50(append(plainRepeat, plainNovel...))) - 1)

	vals["serve.queue_wait_ms_p50"] = ms(lat.QueueP50)
	vals["serve.queue_wait_ms_p95"] = ms(lat.QueueP95)
	vals["serve.run_ms_p50"] = p50(runMs)
	vals["serve.http_overhead_ms_p50"] = p50(all) - ms(lat.P50)
	vals["serve.repeat_ms_p50"] = p50(repeat)
	vals["serve.novel_ms_p50"] = p50(novel)
	vals["serve.rejected"] = float64(health.Rejected)
	var busy float64
	for _, m := range runMs {
		busy += m
	}
	vals["serve.runner_util"] = ratio(busy, ms(wall)*serveWidth)
	simMs := tr.serviceOf(func(_, tier string) bool { return tier == "sim" })
	vals["sim.sampled_pka_ms"] = ratio(ms(simMs), float64(len(novel)))

	ws, err := find(sc.sim)
	if err != nil {
		return nil, nil, err
	}
	if err := replayStack(tr, ws, sc, o, vals); err != nil {
		return nil, nil, err
	}
	vals["silicon.walk_ms"] = ratio(tr.busyMs("silicon.walk"), float64(len(ws)))
	replayProtocol(tr, reqs, e.refs, vals)

	spans, err := tr.readTrace(o.traceOut)
	if err != nil {
		return nil, nil, err
	}
	vals["obs.spans"] = float64(len(spans))
	vals["obs.dropped"] = float64(tr.o.Tracer.Dropped())
	layers := map[string]float64{
		"study_wall_ms":       p50(all),
		"serve.queue_wait":    vals["serve.queue_wait_ms_p50"],
		"serve.run":           vals["serve.run_ms_p50"],
		"serve.http_overhead": vals["serve.http_overhead_ms_p50"],
	}
	vals["obs.phase_coverage_pct"] = 100 * ratio(layers["serve.queue_wait"]+layers["serve.run"]+layers["serve.http_overhead"], layers["study_wall_ms"])
	printPhaseTable(o.log, layers)
	return vals, layers, nil
}

// replayProtocol times the request decoder on every planned body and the
// response marshaller on every reference response, one call at a time.
func replayProtocol(tr *tracing, reqs []request, refs [][]byte, vals map[string]float64) {
	sp := tr.span(trackReplay, "serve.decode")
	for _, r := range reqs {
		t0 := time.Now()
		_, err := serve.DecodeStudyRequest(bytes.NewReader(r.body))
		if err == nil {
			tr.perOp["serve.decode"] = append(tr.perOp["serve.decode"], us(time.Since(t0)))
		}
	}
	sp.End()
	sp = tr.span(trackReplay, "serve.marshal")
	for i := 0; i < len(reqs); i++ {
		var resp serve.StudyResponse
		if json.Unmarshal(refs[i%len(refs)], &resp) != nil {
			continue
		}
		t0 := time.Now()
		if _, err := json.Marshal(&resp); err == nil {
			tr.perOp["serve.marshal"] = append(tr.perOp["serve.marshal"], us(time.Since(t0)))
		}
	}
	sp.End()
	vals["serve.decode_us_p50"] = p50(tr.perOp["serve.decode"])
	vals["serve.marshal_us_p50"] = p50(tr.perOp["serve.marshal"])
}
