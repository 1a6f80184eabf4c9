package main

import (
	"runtime"
	"time"

	t3 "t3"
	"t3/internal/benchdata"
	"t3/internal/engine/plan"
	"t3/internal/feature"
)

// predictBatch is the batch size of the predict workload's batch phase.
const predictBatch = 64

type predictState struct {
	m *t3.Model
	c *corpus
}

// runPredict is the predict workload: one in-process caller predicts the
// corpus plan by plan with PredictPlanScratch for half the measuring time,
// then in batches of 64 with PredictBatchInto on the default pool. Every
// answer must equal the set-up reference bit for bit.
func runPredict(e *env, traced bool) (*report, error) {
	r := newReport()
	st, err := timeSetup(r, setupReps(traced), func() (predictState, error) {
		m, err := e.loadModel()
		if err != nil {
			return predictState{}, err
		}
		c, err := buildCorpus(m, e.seed)
		return predictState{m, c}, err
	}, nil)
	if err != nil {
		return nil, err
	}
	r.prop("plans %d", len(st.c.roots))
	r.prop("pipelines_per_plan %s", st.c.pipelineHistogram())
	if traced {
		return r, tracePredict(e, r, st)
	}
	heap := watchHeap()

	m, roots, refs := st.m, st.c.roots, st.c.refs
	var s t3.PredictScratch
	for _, root := range roots { // warm the scratch and the caches
		m.PredictPlanScratch(root, plan.TrueCards, &s)
	}
	var lat samples
	start := time.Now()
	deadline := start.Add(e.measure / 2)
	ops := 0
	for i := 0; ; i++ {
		j := i % len(roots)
		t0 := time.Now()
		d, _ := m.PredictPlanScratch(roots[j], plan.TrueCards, &s)
		t1 := time.Now()
		lat.add(t1.Sub(t0))
		r.check(d == refs[j])
		ops++
		if t1.After(deadline) {
			break
		}
	}
	elapsed := time.Since(start)

	twice := append(append([]*plan.Node(nil), roots...), roots...)
	out := make([]time.Duration, predictBatch)
	plans := 0
	bstart := time.Now()
	deadline = bstart.Add(e.measure / 2)
	for k := 0; time.Now().Before(deadline); k++ {
		lo := (k * predictBatch) % len(roots)
		m.PredictBatchInto(twice[lo:lo+predictBatch], plan.TrueCards, out)
		for i, d := range out {
			r.check(d == refs[(lo+i)%len(roots)])
		}
		plans += predictBatch
	}
	belapsed := time.Since(bstart)

	r.set("heap_mb", heap.meanMB())
	latencyMetrics(r, &lat, ops, elapsed, "plans")
	r.setExtra("batch_plans_per_s", float64(plans)/belapsed.Seconds(), "1/s")
	return r, nil
}

// setupReps is how often a run sets up: five times for the median
// setup_s, once in a traced run, which does not report it.
func setupReps(traced bool) int {
	if traced {
		return 1
	}
	return 5
}

// tracePredict replays the predict workload through the layers the model
// calls, in its order: DecomposeInto, EncodeDecomposed, Packed.Predict per
// pipeline, and the inverse target transform. The summed answer must equal
// the PredictPlanScratch reference bit for bit. Traced and untraced
// predictions alternate plan by plan, so host speed drifts cancel out of
// the tracing overhead.
func tracePredict(e *env, r *report, st predictState) error {
	m, roots, refs := st.m, st.c.roots, st.c.refs
	quarter := e.measure / 4

	// Untraced scalar and batch passes for allocation and collection
	// counts, and the batch time.
	var s t3.PredictScratch
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ops := 0
	for start := time.Now(); time.Since(start) < quarter; ops++ {
		j := ops % len(roots)
		d, _ := m.PredictPlanScratch(roots[j], plan.TrueCards, &s)
		r.check(d == refs[j])
	}
	runtime.ReadMemStats(&ms1)
	r.set("runtime.allocs_per_predict", float64(ms1.Mallocs-ms0.Mallocs)/float64(ops))
	gcs := ms1.NumGC - ms0.NumGC

	twice := append(append([]*plan.Node(nil), roots...), roots...)
	out := make([]time.Duration, predictBatch)
	batches := 0
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for ; time.Since(start) < quarter; batches++ {
		lo := (batches * predictBatch) % len(roots)
		m.PredictBatchInto(twice[lo:lo+predictBatch], plan.TrueCards, out)
	}
	batchTime := time.Since(start)
	runtime.ReadMemStats(&ms1)
	r.set("t3.batch_ns_per_plan", float64(batchTime.Nanoseconds())/float64(batches*predictBatch))
	r.set("runtime.allocs_per_batch", float64(ms1.Mallocs-ms0.Mallocs)/float64(batches))
	r.set("runtime.gc_cycles", float64(gcs+ms1.NumGC-ms0.NumGC))

	reg, packed := m.Registry(), m.Packed()
	var fs feature.Scratch
	tr := newTracer(time.Now())
	var untraced time.Duration
	plans, pipes := 0, 0
	for start := time.Now(); time.Since(start) < 2*quarter && !tr.full(); plans++ {
		j := plans % len(roots)
		t0 := time.Now()
		m.PredictPlanScratch(roots[j], plan.TrueCards, &s)
		untraced += time.Since(t0)

		req := int64(plans)
		root := tr.begin("t3.predict", req, -1)
		sp := tr.begin("plan.decompose", req, root)
		pipelines := plan.DecomposeInto(roots[j], &fs.Pipes)
		tr.end(sp)
		sp = tr.begin("feature.encode", req, root)
		vecs := reg.EncodeDecomposed(&fs, pipelines, plan.TrueCards)
		tr.end(sp)
		var total time.Duration
		for k, v := range vecs {
			sp = tr.begin("treec.predict", req, root)
			raw := packed.Predict(v)
			tr.end(sp)
			sp = tr.begin("t3.inverse_target", req, root)
			perTuple := benchdata.InverseTarget(raw)
			total += time.Duration(perTuple * feature.SourceCard(pipelines[k], plan.TrueCards) * float64(time.Second))
			tr.end(sp)
		}
		tr.end(root)
		r.check(total == refs[j])
		pipes += len(vecs)
	}
	lt := selfTimes(tr)
	predictNs := float64(untraced.Nanoseconds()) / float64(plans)
	r.set("t3.predict_ns", predictNs)
	r.set("plan.pipelines_per_plan", float64(pipes)/float64(plans))
	r.set("plan.decompose_ns", perOp(lt, "plan.decompose", pipes))
	r.set("feature.encode_ns", perOp(lt, "feature.encode", pipes))
	r.set("treec.predict_ns", perOp(lt, "treec.predict", pipes))
	layers := perOp(lt, "plan.decompose", plans) + perOp(lt, "feature.encode", plans) + perOp(lt, "treec.predict", plans)
	r.set("t3.coverage", layers/predictNs)
	r.set("trace.overhead_ns", float64(lt["t3.predict"].total.Nanoseconds())/float64(plans)-predictNs)
	r.set("trace.spans", float64(spanCount(tr)))
	return finishTrace(e, r, "predict", tr)
}

// finishTrace writes the spans out once the traced run has ended.
func finishTrace(e *env, r *report, workload string, ts ...*tracer) error {
	path, err := writeSpans(e.out, workload, e.seed, ts...)
	if err != nil {
		return err
	}
	r.prop("spans written to %s", path)
	return nil
}
