package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	t3 "t3"
	"t3/internal/joinorder"
	"t3/internal/workload"
)

// optimizeShapes are the join graphs of the optimize workload, enumerated
// round-robin. Their number is odd so that p50 falls inside one graph's
// group of timings, not between two; shapes and sizes are fixed and the
// seed varies cardinalities and predicates.
var optimizeShapes = []struct {
	shape string
	n     int
}{
	{workload.ShapeChain, 9},
	{workload.ShapeStar, 9},
	{workload.ShapeClique, 8},
	{workload.ShapeChain, 10},
	{workload.ShapeStar, 10},
	{workload.ShapeClique, 8},
	{workload.ShapeChain, 11},
	{workload.ShapeStar, 9},
	{workload.ShapeClique, 7},
}

// optimizeBaseRows sizes the synthetic join instances.
const optimizeBaseRows = 4000

type optGraph struct {
	inst *workload.Instance
	spec *workload.JoinSpec
	n    int
	ref  *joinorder.Result // scalar DPSize with NewT3Cost(Packed)
}

type optimizeState struct {
	m      *t3.Model
	graphs []optGraph
}

func setupOptimize(e *env) (optimizeState, error) {
	m, err := e.loadModel()
	if err != nil {
		return optimizeState{}, err
	}
	st := optimizeState{m: m}
	for i, c := range optimizeShapes {
		inst, spec := workload.SyntheticJoinBench(c.shape, c.n, optimizeBaseRows, e.seed*1009+int64(i))
		oracle := joinorder.NewMemoOracle(joinorder.NewEstOracle(inst, spec), c.n)
		ref, err := joinorder.DPSize(spec, joinorder.NewT3Cost(m.Packed(), m.Registry(), inst, spec, oracle))
		if err != nil {
			return st, fmt.Errorf("reference enumeration of %s: %w", spec.Name, err)
		}
		st.graphs = append(st.graphs, optGraph{inst, spec, c.n, ref})
	}
	return st, nil
}

// enumerate runs one batched enumeration with a fresh memoized estimator,
// as an optimizer pays for its estimator on every query.
func (st optimizeState) enumerate(g optGraph, wrap func(joinorder.Oracle) joinorder.Oracle) (*joinorder.Result, error) {
	var est joinorder.Oracle = joinorder.NewEstOracle(g.inst, g.spec)
	if wrap != nil {
		est = wrap(est)
	}
	return joinorder.DPSizeBatched(g.spec, st.m.Packed(), st.m.Registry(), g.inst,
		joinorder.NewMemoOracle(est, g.n), joinorder.BatchConfig{})
}

// sameResult reports whether an enumeration chose the reference's tree at
// the reference's cost, bit for bit.
func sameResult(got, ref *joinorder.Result) bool {
	return math.Float64bits(got.Cost) == math.Float64bits(ref.Cost) && sameTree(got.Tree, ref.Tree)
}

func sameTree(a, b *joinorder.Tree) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Rel == b.Rel && sameTree(a.Left, b.Left) && sameTree(a.Right, b.Right)
}

// runOptimize is the optimize workload: one caller runs DPSizeBatched
// round-robin over the seeded join graphs.
func runOptimize(e *env, traced bool) (*report, error) {
	r := newReport()
	st, err := timeSetup(r, setupReps(traced), func() (optimizeState, error) { return setupOptimize(e) }, nil)
	if err != nil {
		return nil, err
	}
	for _, g := range st.graphs {
		r.prop("graph %s relations %d dp_steps %d", g.spec.Name, g.n, g.ref.DPSteps)
	}
	if traced {
		return r, traceOptimize(e, r, st)
	}
	heap := watchHeap()
	for _, g := range st.graphs { // warm the enumerator pools and the caches
		if _, err := st.enumerate(g, nil); err != nil {
			return nil, err
		}
	}
	var lat samples
	ops := 0
	start := time.Now()
	deadline := start.Add(e.measure)
	for i := 0; ; i++ {
		g := st.graphs[i%len(st.graphs)]
		t0 := time.Now()
		res, err := st.enumerate(g, nil)
		t1 := time.Now()
		lat.add(t1.Sub(t0))
		r.check(err == nil && sameResult(res, g.ref))
		ops++
		if t1.After(deadline) {
			break
		}
	}
	elapsed := time.Since(start)
	r.set("heap_mb", heap.meanMB())
	latencyMetrics(r, &lat, ops, elapsed, "enumerations")
	return r, nil
}

// timedOracle times every call into the cardinality estimator the memo
// oracle falls through to.
type timedOracle struct {
	inner  joinorder.Oracle
	tr     *tracer
	req    int64
	parent int32
	calls  int
}

func (o *timedOracle) Card(set uint64) float64 {
	sp := o.tr.begin("joinorder.oracle", o.req, o.parent)
	v := o.inner.Card(set)
	o.tr.end(sp)
	o.calls++
	return v
}

// traceOptimize counts allocations over an untraced pass, then enumerates
// each graph untraced and traced in turn, with a span per traced
// enumeration and per estimator call, and averages the enumerator's own
// counts from Result.
func traceOptimize(e *env, r *report, st optimizeState) error {
	third := e.measure / 3
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ops := 0
	for start := time.Now(); time.Since(start) < third; ops++ {
		g := st.graphs[ops%len(st.graphs)]
		res, err := st.enumerate(g, nil)
		r.check(err == nil && sameResult(res, g.ref))
	}
	runtime.ReadMemStats(&ms1)
	r.set("runtime.allocs_per_enum", float64(ms1.Mallocs-ms0.Mallocs)/float64(ops))
	r.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))

	tr := newTracer(time.Now())
	var sum joinorder.Result
	var untraced, traced time.Duration
	calls, enums := 0, 0
	for start := time.Now(); time.Since(start) < 2*third && !tr.full(); enums++ {
		g := st.graphs[enums%len(st.graphs)]
		t0 := time.Now()
		res, err := st.enumerate(g, nil)
		untraced += time.Since(t0)
		r.check(err == nil && sameResult(res, g.ref))

		root := tr.begin("joinorder.enumerate", int64(enums), -1)
		to := &timedOracle{tr: tr, req: int64(enums), parent: root}
		res, err = st.enumerate(g, func(o joinorder.Oracle) joinorder.Oracle {
			to.inner = o
			return to
		})
		tr.end(root)
		traced += time.Duration(tr.spans[root].end - tr.spans[root].start)
		ok := err == nil && sameResult(res, g.ref)
		r.check(ok)
		if !ok {
			continue
		}
		calls += to.calls
		sum.DPSteps += res.DPSteps
		sum.ModelCalls += res.ModelCalls
		sum.Batches += res.Batches
		sum.MaxBatch = max(sum.MaxBatch, res.MaxBatch)
		sum.Pruned += res.Pruned
	}
	n := float64(max(1, enums))
	lt := selfTimes(tr)
	r.set("joinorder.dp_steps", float64(sum.DPSteps)/n)
	r.set("joinorder.model_calls", float64(sum.ModelCalls)/n)
	r.set("joinorder.batches", float64(sum.Batches)/n)
	r.set("joinorder.max_batch", float64(sum.MaxBatch))
	r.set("joinorder.pruned", float64(sum.Pruned)/n)
	r.set("joinorder.pruned_share", float64(sum.Pruned)/float64(max(1, sum.DPSteps)))
	r.set("joinorder.oracle_calls", float64(calls)/n)
	r.set("joinorder.oracle_us", perOp(lt, "joinorder.oracle", enums)/1e3)
	r.set("trace.overhead_ns", float64(traced-untraced)/n)
	r.set("trace.spans", float64(spanCount(tr)))
	return finishTrace(e, r, "optimize", tr)
}
