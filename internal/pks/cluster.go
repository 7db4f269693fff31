package pks

import (
	"errors"
	"fmt"
	"math"

	"pka/internal/classify"
	"pka/internal/cluster"
	"pka/internal/linalg"
	"pka/internal/profiler"
	"pka/internal/trace"
)

// This file is the one statement of the paper's clustering procedure:
// SelectSegments clusters every selection's pooled records through
// ClusterRecords, per-workload PKS and suite-level dedup alike; they differ
// only in the score that stops the sweep.

// Cluster is one non-empty cluster of a fitted clustering, expressed in
// record indices (the caller's numbering, not sample positions).
type Cluster struct {
	// ID is the cluster's index in the fitted cluster.KMeansResult.
	ID int
	// Rep is the elected representative's record index.
	Rep int
	// Members are the clustered (sampled) records, ascending.
	Members []int
}

// ScoreFunc scores the clustering fitted at one K of the sweep and reports
// whether the sweep may stop there. Callers own their stop bounds and
// whatever audit records or counters a step emits.
type ScoreFunc func(k int, clusters []Cluster) (errPct float64, stop bool)

// ElectFunc picks cluster c's representative among members, which are
// positions into points. A nil ElectFunc elects the first chronological
// member — the paper's policy and the only one outside the ablations.
type ElectFunc func(points [][]float64, res *cluster.KMeansResult, c int, members []int) int

// Clustering is ClusterRecords' result.
type Clustering struct {
	// Clusters are the chosen K's non-empty clusters; group g is Clusters[g].
	Clusters []Cluster
	// GroupOf maps every record, sampled or not, to its group.
	GroupOf []int
	// SweepErrors is the score at each K tried (index 0 is K=1).
	SweepErrors []float64
}

// pcaVarianceTarget is the explained-variance fraction the PCA keeps.
const pcaVarianceTarget = 0.9

// ClusterRecords clusters detailed records on their Table-2 vectors under
// the filled options: strided sample of at most ClusterSampleMax, log
// scaling, PCA to pcaVarianceTarget (or standardization, with DisablePCA),
// one Dataset swept over K up to MaxK with score deciding where to stop,
// nearest-centre assignment of the unsampled records, and one representative
// per non-empty cluster, elected by the Representative policy.
//
// A scaled workload launches a few dozen distinct kernels thousands of
// times, so vectors are interned first, from the pool's kinds: scaling,
// projection and nearest centre run once per distinct vector, while what
// reduces over launches (the PCA fit's moments, the Lloyd loop's sums) still
// sees one row per launch, in launch order.
func ClusterRecords(p *Pool, o Options, score ScoreFunc) (*Clustering, error) {
	elect := o.elector()
	vecOfKind, vecs := internFeatures(p.kinds)
	vecOf := func(i int) int { return int(vecOfKind[p.kindOf[i]]) }
	scaled := linalg.NewMatrix(len(vecs), trace.NumFeatures)
	for v, f := range vecs {
		ScaleFeatures(scaled.Row(v), f)
	}
	sample := SampleIndices(p.Len(), o.ClusterSampleMax)
	feat := linalg.NewMatrix(len(sample), trace.NumFeatures)
	for r, idx := range sample {
		copy(feat.Row(r), scaled.Row(vecOf(idx)))
	}
	points := make([][]float64, len(sample))
	space := scaled // row v is vecs[v] in cluster space
	if o.DisablePCA {
		std := feat.Standardize()
		for r := range points {
			points[r] = std.Row(r)
		}
	} else {
		pca, err := linalg.FitPCA(feat, pcaVarianceTarget, 2)
		if err != nil {
			return nil, fmt.Errorf("PCA: %w", err)
		}
		if space, err = pca.Transform(scaled); err != nil {
			return nil, err
		}
		for r, idx := range sample {
			points[r] = space.Row(vecOf(idx))
		}
	}
	// One Dataset for the whole K-sweep: every fit after the first reuses
	// the interned points and the Lloyd scratch buffers.
	ds, err := cluster.NewDataset(points)
	if err != nil {
		return nil, fmt.Errorf("kmeans dataset: %w", err)
	}
	best, sweep, err := ds.Sweep(min(o.MaxK, ds.N()),
		func(k int) uint64 { return o.Seed + uint64(k) },
		func(k int, res *cluster.KMeansResult) (float64, bool) {
			return score(k, electClusters(res, points, sample, elect))
		})
	if err != nil {
		return nil, fmt.Errorf("kmeans sweep: %w", err)
	}
	out := &Clustering{Clusters: electClusters(best, points, sample, elect), SweepErrors: sweep}
	if len(out.Clusters) == 0 {
		return nil, errors.New("clustering produced no groups")
	}

	groupOfCluster := make([]int, best.K)
	for g, cl := range out.Clusters {
		groupOfCluster[cl.ID] = g
	}
	// A nearest-centre assignment can land on a cluster that was empty in
	// the sample; groupOfCluster's zero value folds it into group 0.
	nearest := make([]int, len(vecs)) // group of each vector's nearest centre, -1 until asked
	for v := range nearest {
		nearest[v] = -1
	}
	out.GroupOf = make([]int, p.Len())
	pos := 0
	for i := range out.GroupOf {
		if pos < len(sample) && sample[pos] == i {
			out.GroupOf[i] = groupOfCluster[best.Assignment[pos]]
			pos++
			continue
		}
		v := vecOf(i)
		if nearest[v] < 0 {
			nearest[v] = groupOfCluster[best.NearestCenter(space.Row(v))]
		}
		out.GroupOf[i] = nearest[v]
	}
	return out, nil
}

// internFeatures numbers the distinct Table-2 vectors of recs in first-seen
// order: record i carries vecs[vecOf[i]], equal to its own bit for bit. Over
// a pool's kinds, which are in first-seen order themselves, it numbers the
// vectors as it would over every launch.
func internFeatures(recs []profiler.DetailedRecord) (vecOf []int32, vecs [][]float64) {
	ids := map[[trace.NumFeatures]uint64]int32{}
	vecOf = make([]int32, len(recs))
	for i := range recs {
		var key [trace.NumFeatures]uint64
		for j := range key {
			key[j] = math.Float64bits(recs[i].Features[j])
		}
		v, ok := ids[key]
		if !ok {
			v = int32(len(vecs))
			ids[key] = v
			vecs = append(vecs, recs[i].Features)
		}
		vecOf[i] = v
	}
	return vecOf, vecs
}

// electClusters lists res's non-empty clusters with one representative
// each: elect's choice, or the first chronological member (the lowest
// position, since samples are taken in record order). elect sees dataset
// positions, which index points; sample maps them to record indices. Members
// are bucketed in one counting pass over the assignment, every cluster's
// slice a window of one array.
func electClusters(res *cluster.KMeansResult, points [][]float64, sample []int, elect ElectFunc) []Cluster {
	end := make([]int, res.K) // where cluster c's window has been filled up to
	for c := 1; c < res.K; c++ {
		end[c] = end[c-1] + res.Sizes[c-1]
	}
	all := make([]int, len(res.Assignment))
	for i, c := range res.Assignment {
		all[end[c]] = i
		end[c]++
	}
	out := make([]Cluster, 0, res.K)
	for c := 0; c < res.K; c++ {
		members := all[end[c]-res.Sizes[c] : end[c] : end[c]]
		if len(members) == 0 {
			continue
		}
		rep := members[0]
		if elect != nil {
			rep = elect(points, res, c, members)
		}
		rep = sample[rep]
		for i, m := range members {
			members[i] = sample[m]
		}
		out = append(out, Cluster{ID: c, Rep: rep, Members: members})
	}
	return out
}

// ProjectedCycles is the sweep's yardstick: the cycles the clusters'
// representatives project for their members, and the members' true total.
func ProjectedCycles(clusters []Cluster, p *Pool) (projected, total int64) {
	for _, cl := range clusters {
		projected += p.Cycles(cl.Rep) * int64(len(cl.Members))
		for _, m := range cl.Members {
			total += p.Cycles(m)
		}
	}
	return projected, total
}

// TailClassifier maps the lightly-profiled tail of a two-level selection
// onto the groups its detailed prefix was clustered into.
type TailClassifier struct {
	ens *classify.Ensemble // nil when there is a single group
	// votes memoises the ensemble per launch configuration (a light record
	// with its per-launch fields zeroed): the tail repeats a few kernels, and
	// the vote is a pure function of what LightFeatures reads.
	votes   map[profiler.LightRecord]int
	x       [][]float64
	y       []int
	classes int
	seed    uint64
}

// newTailClassifier builds the training set of the SGD + Naive Bayes + MLP
// ensemble, unfitted: the launch features of the detailed records, labelled
// with their groups. Training cost grows linearly in rows while huge detailed
// prefixes are massively redundant (the same layer kernels repeat thousands of
// times), so the set is capped by strided sampling, and the rows of one kind
// are one shared slice: the members only read them. HoldoutAccuracy only
// reads the set either, so a selection can start its probe before fit.
func newTailClassifier(p *Pool, groupOf []int, numClasses int, seed uint64) *TailClassifier {
	const classifierTrainMax = 20000
	idx := SampleIndices(p.Len(), classifierTrainMax)
	t := &TailClassifier{x: make([][]float64, len(idx)), y: make([]int, len(idx)), classes: numClasses, seed: seed}
	rows := make([][]float64, len(p.kinds)) // each kind's row, once it is sampled
	for i, r := range idx {
		kind := p.kindOf[r]
		if rows[kind] == nil {
			rows[kind] = profiler.FeaturesOfDetailed(p.kinds[kind], p.sharedMem[kind])
		}
		t.x[i] = rows[kind]
		t.y[i] = groupOf[r]
	}
	return t
}

// fit trains the ensemble Group votes with; a single group needs none.
func (t *TailClassifier) fit() error {
	if t.classes > 1 {
		t.ens = classify.NewEnsemble(t.seed)
		t.votes = map[profiler.LightRecord]int{}
		if err := t.ens.Fit(t.x, t.y, t.classes); err != nil {
			return fmt.Errorf("classifier training: %w", err)
		}
	}
	return nil
}

// Group returns the group a lightly-profiled kernel maps onto.
func (t *TailClassifier) Group(rec profiler.LightRecord) int {
	if t.ens == nil {
		return 0
	}
	rec.KernelID, rec.Cycles = 0, 0
	g, ok := t.votes[rec]
	if !ok {
		g = t.ens.Predict(profiler.FeaturesOfLight(rec))
		t.votes[rec] = g
	}
	return g
}

// HoldoutAccuracy trains a probe ensemble on 80% of the training set and
// scores it on the strided remaining 20%: every fifth row, len/5 of them.
func (t *TailClassifier) HoldoutAccuracy() (float64, error) {
	nte := len(t.x) / 5
	trX, teX := make([][]float64, 0, len(t.x)-nte), make([][]float64, 0, nte)
	trY, teY := make([]int, 0, len(t.x)-nte), make([]int, 0, nte)
	for i := range t.x {
		if i%5 == 4 {
			teX, teY = append(teX, t.x[i]), append(teY, t.y[i])
		} else {
			trX, trY = append(trX, t.x[i]), append(trY, t.y[i])
		}
	}
	probe := classify.NewEnsemble(t.seed)
	if err := probe.Fit(trX, trY, t.classes); err != nil {
		return 0, fmt.Errorf("classifier holdout: %w", err)
	}
	return classify.Accuracy(probe, teX, teY), nil
}
