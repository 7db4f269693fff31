package pks

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pka/internal/classify"
	"pka/internal/cluster"
	"pka/internal/gpu"
	"pka/internal/leakcheck"
	"pka/internal/linalg"
	"pka/internal/profiler"
	"pka/internal/stats"
	"pka/internal/trace"
	"pka/internal/workload"
)

// refClusterRecords is ClusterRecords as it ran before Table-2 vectors were
// interned: every record scaled, projected and nearest-centre assigned on
// its own, every cluster's members found by their own scan.
func refClusterRecords(recs []profiler.DetailedRecord, o Options, score ScoreFunc) (*Clustering, error) {
	elect := o.elector()
	sample := SampleIndices(len(recs), o.ClusterSampleMax)
	feat := linalg.NewMatrix(len(sample), trace.NumFeatures)
	for r, idx := range sample {
		ScaleFeatures(feat.Row(r), recs[idx].Features)
	}
	proj := feat
	var pca *linalg.PCA
	if o.DisablePCA {
		proj = feat.Standardize()
	} else {
		var err error
		if pca, err = linalg.FitPCA(feat, pcaVarianceTarget, 2); err != nil {
			return nil, err
		}
		if proj, err = pca.Transform(feat); err != nil {
			return nil, err
		}
	}
	points := make([][]float64, proj.Rows)
	for i := range points {
		points[i] = proj.Row(i)
	}
	ds, err := cluster.NewDataset(points)
	if err != nil {
		return nil, err
	}
	clustersOf := func(res *cluster.KMeansResult) []Cluster {
		var cs []Cluster
		for c := 0; c < res.K; c++ {
			members := res.Members(c)
			if len(members) == 0 {
				continue
			}
			rep := members[0]
			if elect != nil {
				rep = elect(points, res, c, members)
			}
			for i, m := range members {
				members[i] = sample[m]
			}
			cs = append(cs, Cluster{ID: c, Rep: sample[rep], Members: members})
		}
		return cs
	}
	best, sweep, err := ds.Sweep(min(o.MaxK, ds.N()),
		func(k int) uint64 { return o.Seed + uint64(k) },
		func(k int, res *cluster.KMeansResult) (float64, bool) { return score(k, clustersOf(res)) })
	if err != nil {
		return nil, err
	}
	out := &Clustering{Clusters: clustersOf(best), SweepErrors: sweep}

	groupOfCluster := make([]int, best.K)
	for g, cl := range out.Clusters {
		groupOfCluster[cl.ID] = g
	}
	out.GroupOf = make([]int, len(recs))
	pos := 0
	for i := range out.GroupOf {
		if pos < len(sample) && sample[pos] == i {
			out.GroupOf[i] = groupOfCluster[best.Assignment[pos]]
			pos++
			continue
		}
		pt := ScaleFeatures(nil, recs[i].Features)
		if pca != nil {
			var err error
			if pt, err = pca.TransformRow(pt); err != nil {
				return nil, err
			}
		}
		out.GroupOf[i] = groupOfCluster[best.NearestCenter(pt)]
	}
	return out, nil
}

// detailedRecords profiles the first max launches of a catalogue workload.
func detailedRecords(t *testing.T, name string, max int) ([]profiler.DetailedRecord, *workload.Workload) {
	t.Helper()
	w := workload.Find(name)
	if w == nil {
		t.Fatalf("no workload %s", name)
	}
	var recs []profiler.DetailedRecord
	next := w.Iterator()
	for k := next(); k != nil && len(recs) < max; k = next() {
		rec, _, err := profiler.Detailed(gpu.VoltaV100(), k)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs, w
}

// poolOf pools recs as one segment, launch i with sharedMem[i] (0 when
// sharedMem is shorter).
func poolOf(recs []profiler.DetailedRecord, sharedMem []int) *Pool {
	p := newPool(len(recs))
	for i, rec := range recs {
		var mem int
		if i < len(sharedMem) {
			mem = sharedMem[i]
		}
		p.add(rec, mem)
	}
	p.endSegment()
	return p
}

// TestClusterRecordsMatchesRowAtATime runs the interned clustering core and
// the row-at-a-time reference over gramschmidt's 6 144 launches (132
// distinct vectors) in a shuffled order, so duplicates are scattered rather
// than periodic. The sampled arms leave most records to the per-vector
// nearest-centre memo; the elector arm hands dataset positions to a callback.
func TestClusterRecordsMatchesRowAtATime(t *testing.T) {
	ordered, _ := detailedRecords(t, "Polybench/gramschmidt", 1<<30)
	recs := make([]profiler.DetailedRecord, len(ordered))
	for i, j := range stats.NewRNG(16).Perm(len(ordered)) {
		recs[i] = ordered[j]
	}
	p := poolOf(recs, nil)
	_, vecs := internFeatures(recs)
	if len(vecs) < 2 || len(vecs) > len(recs)/10 {
		t.Fatalf("%d distinct vectors in %d records: not a duplicate-heavy set", len(vecs), len(recs))
	}
	// K = 2 already projects within 0.5 %; hold the sweep to K = 10 so it
	// fits clusterings that split duplicate-heavy data finely.
	score := func(k int, clusters []Cluster) (float64, bool) {
		projected, total := ProjectedCycles(clusters, p)
		e := stats.AbsPctErr(float64(projected), float64(total))
		return e, k >= 10 && e <= 0.5
	}
	for _, o := range []Options{
		{ClusterSampleMax: len(recs)},
		{ClusterSampleMax: 500},
		{ClusterSampleMax: 500, DisablePCA: true},
		{ClusterSampleMax: 700, Representative: RepClusterCenter},
	} {
		o.MaxK, o.Seed = 20, 7
		name := fmt.Sprintf("sample %d pca=%v rep=%v", o.ClusterSampleMax, !o.DisablePCA, o.Representative)
		got, err := ClusterRecords(p, o, score)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := refClusterRecords(recs, o, score)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !reflect.DeepEqual(got.SweepErrors, want.SweepErrors) {
			t.Errorf("%s: SweepErrors = %v, want %v", name, got.SweepErrors, want.SweepErrors)
		}
		if !reflect.DeepEqual(got.Clusters, want.Clusters) {
			t.Errorf("%s: Clusters differ from the row-at-a-time reference", name)
		}
		if !reflect.DeepEqual(got.GroupOf, want.GroupOf) {
			t.Errorf("%s: GroupOf differs from the row-at-a-time reference", name)
		}
	}
}

// TestTailGroupMatchesFreshPredict checks the per-launch-configuration vote
// memo against an unmemoised ensemble: 3dunet_inf capped at 1 000 detailed
// kernels, every one of its light records.
func TestTailGroupMatchesFreshPredict(t *testing.T) {
	const maxDetailed = 1000
	detailed, w := detailedRecords(t, "MLPerf/3dunet_inf", maxDetailed)
	sharedMem := make([]int, len(detailed))
	for i := range sharedMem {
		k := w.Kernel(i)
		sharedMem[i] = k.SharedMemPerBlock
	}
	o := Options{}.filled()
	p := poolOf(detailed, sharedMem)
	c, err := ClusterRecords(p, o, projectionScore(o, p))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Clusters) < 2 {
		t.Fatalf("%d group(s): the ensemble is never consulted", len(c.Clusters))
	}
	tail := newTailClassifier(p, c.GroupOf, len(c.Clusters), 0)
	if err := tail.fit(); err != nil {
		t.Fatal(err)
	}
	fresh := classify.NewEnsemble(0)
	if err := fresh.Fit(tail.x, tail.y, len(c.Clusters)); err != nil {
		t.Fatal(err)
	}
	for i := maxDetailed; i < w.N; i++ {
		k := w.Kernel(i)
		rec, _, err := profiler.Light(gpu.VoltaV100(), &k)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tail.Group(rec), fresh.Predict(profiler.FeaturesOfLight(rec)); got != want {
			t.Fatalf("launch %d (%s): Group = %d, fresh Predict = %d", i, rec.Name, got, want)
		}
	}
	if n := w.N - maxDetailed; len(tail.votes) == 0 || len(tail.votes) > n/10 {
		t.Errorf("%d memo entries for %d light records", len(tail.votes), n)
	}
}

// TestTailLightErrorJoinsProbe: light profiling that fails at the first tail
// kernel fails the selection with its error, and the holdout probe started
// beside the tail's fit has been joined by the time finish returns —
// its accuracy is already written over the default 1 (3dunet_inf's probe
// scores below that; make race would flag a late write), and the goroutine
// count settles back. The failure is the silicon model's: a copy of
// 3dunet_inf whose first tail launch has a 2048-thread block.
func TestTailLightErrorJoinsProbe(t *testing.T) {
	const maxDetailed = 1000
	dev := gpu.VoltaV100()
	src := workload.Find("MLPerf/3dunet_inf")
	w := workload.New(src.Suite, src.Name, src.N, func(i int) trace.KernelDesc {
		k := src.Kernel(i)
		if i == maxDetailed {
			k.Block.X = 2048
		}
		return k
	})
	var detailed []profiler.DetailedRecord
	var sharedMem []int
	for i := 0; i < maxDetailed; i++ {
		k := w.Kernel(i)
		rec, _, err := profiler.Detailed(dev, &k)
		if err != nil {
			t.Fatal(err)
		}
		detailed = append(detailed, rec)
		sharedMem = append(sharedMem, k.SharedMemPerBlock)
	}

	before := runtime.NumGoroutine()
	seg := &Segments{Sels: []*Selection{{Workload: w.FullName(), Device: dev.Name, TotalKernels: w.N, DetailedKernels: maxDetailed, TwoLevel: true}}}
	err := seg.finish(dev, []*workload.Workload{w}, poolOf(detailed, sharedMem), Options{}.filled(), projectionScore)
	if want := fmt.Sprintf("light profiling kernel %d: trace: kernel", maxDetailed); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err %v, want the silicon model's refusal of kernel %d (%q)", err, maxDetailed, want)
	}
	if acc := seg.ClassifierAccuracy; acc <= 0 || acc >= 1 {
		t.Errorf("accuracy on return %v, want the probe's score in (0, 1)", acc)
	}
	if n, dump := leakcheck.Settled(before); n > before {
		t.Errorf("%d goroutine(s) before the selection, %d after:\n%s", before, n, dump)
	}
}
