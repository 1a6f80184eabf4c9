package main

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	t3 "t3"
	"t3/internal/benchdata"
	"t3/internal/ctrl"
	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/obs"
	"t3/internal/qerror"
	"t3/internal/registry"
	"t3/internal/serve"
	"t3/internal/workload"
)

// Retrain episode size: a TPC-H instance at this scale, this many generated
// queries per structure group (16 groups), each executed once to annotate
// and retrainRuns times to time.
//
// Episodes cycle through retrainCycle fixed query-generation seeds, and a
// run measures whole cycles. The generator's query costs are heavy-tailed
// (one generated JA query joins lineitem to partsupp through supplier and
// makes 2.4M rows, 400 times a median label), so a query set drawn from
// --seed would make a run's cost depend on how many such queries it drew.
// --seed varies the TPC-H data instead.
const (
	retrainScale     = 0.05
	retrainPerGroup  = 4
	retrainRuns      = 2
	retrainCycle     = 4
	retrainQuerySeed = 1
	holdoutFraction  = 0.25
)

// labelTap wraps the production label source: it cycles the episodes
// through retrainCycle query seeds, keeps the last label set for the
// checks, and times every engine run from outside through the collector's
// RunPlan hook, so each label's latency is known.
type labelTap struct {
	src  *ctrl.WorkloadSource
	last *workload.LabelSet

	mu    sync.Mutex
	times map[*plan.Node]time.Duration // engine time per plan root
}

func (t *labelTap) CollectLabels(attempt int) (*workload.LabelSet, error) {
	t.mu.Lock()
	t.times = map[*plan.Node]time.Duration{}
	t.mu.Unlock()
	ls, err := t.src.CollectLabels(attempt % retrainCycle)
	t.last = ls
	return ls, err
}

func (t *labelTap) run(ex *exec.Executor, root *plan.Node, annotate bool) (*exec.RunResult, error) {
	start := time.Now()
	res, err := ex.Run(root, annotate)
	d := time.Since(start)
	t.mu.Lock()
	t.times[root] += d
	t.mu.Unlock()
	return res, err
}

// labelTimes returns the engine time of every label of the last set: its
// analyze run plus its timing runs.
func (t *labelTap) labelTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	if t.last != nil {
		for _, l := range t.last.Labels {
			out = append(out, t.times[l.Root])
		}
	}
	return out
}

type retrainState struct {
	inst    *workload.Instance
	dir     string
	reg     *registry.Registry
	srv     *serve.Server
	tap     *labelTap
	ctl     *ctrl.Controller
	serial  uint64 // fingerprint of a serial collection of episode 0's labels
	cand    *t3.Model
	candRow int // training rows of the last candidate
}

func (st *retrainState) close() { os.RemoveAll(st.dir) }

// collectConfig is the label collection of an episode cycle's first
// episode; the controller's source adds the attempt to the seed.
func collectConfig() workload.CollectConfig {
	return workload.CollectConfig{PerGroup: retrainPerGroup, Runs: retrainRuns, Seed: retrainQuerySeed}
}

func setupRetrain(e *env) (*retrainState, error) {
	m, err := e.loadModel()
	if err != nil {
		return nil, err
	}
	st := &retrainState{inst: workload.MustGenerate(workload.TPCHSpec("tpch", retrainScale, e.seed+1))}
	serialCfg := collectConfig()
	serialCfg.Workers, serialCfg.IntraWorkers = 1, -1
	serial, err := workload.CollectLabels(st.inst, serialCfg)
	if err != nil {
		return nil, fmt.Errorf("serial reference collection: %w", err)
	}
	st.serial = serial.Fingerprint()

	if st.dir, err = e.scratchDir("registry"); err != nil {
		return nil, err
	}
	if st.reg, err = registry.Open(st.dir); err != nil {
		st.close()
		return nil, err
	}
	st.srv = serve.New(m, serve.Config{})
	st.tap = &labelTap{src: &ctrl.WorkloadSource{Instance: st.inst, Config: collectConfig()}}
	st.tap.src.Config.RunPlan = st.tap.run
	st.ctl, err = ctrl.New(ctrl.Config{
		Registry:        st.reg,
		Source:          st.tap,
		Swapper:         st.srv,
		HoldoutFraction: holdoutFraction,
		Train: func(benched []*benchdata.BenchedQuery) (*t3.Model, error) {
			cand, err := t3.Train(benched, t3.TrainOptions{})
			st.cand, st.candRow = cand, trainingRows(benched)
			return cand, err
		},
	})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("starting the controller: %w", err)
	}
	return st, nil
}

func trainingRows(benched []*benchdata.BenchedQuery) int {
	n := 0
	for _, b := range benched {
		n += len(b.Pipelines)
	}
	return n
}

// episode is one measured retrain episode and what the checks found.
type episode struct {
	took      time.Duration
	promoted  bool
	labels    int
	trainRows int
	qerrors   []float64 // candidate q-errors over the episode's holdout labels
}

// runEpisode runs one controller episode and checks it: no error, a
// promoted version loads back through registry.Load, and episode 0's label
// fingerprint equals the serial collection's.
func (st *retrainState) runEpisode(r *report, i int) (episode, []time.Duration) {
	t0 := time.Now()
	res, err := st.ctl.Retrain("perfbench")
	ep := episode{took: time.Since(t0)}
	ok := err == nil
	if ok && res.Promoted {
		a, lerr := st.reg.Load(res.Version)
		ok = lerr == nil && a.Meta.Version == res.Version
	}
	if ok && i == 0 {
		ok = st.tap.last.Fingerprint() == st.serial
	}
	r.check(ok)
	if err != nil {
		return ep, nil
	}
	ep.promoted = res.Promoted
	ep.labels = len(st.tap.last.Labels)
	ep.trainRows = st.candRow
	ep.qerrors = holdoutQErrors(st.cand, st.tap.last)
	return ep, st.tap.labelTimes()
}

// holdoutQErrors scores a candidate on the holdout labels of its own
// episode, split as the controller splits them.
func holdoutQErrors(m *t3.Model, ls *workload.LabelSet) []float64 {
	_, holdout := ls.Split(holdoutFraction)
	var s t3.PredictScratch
	var qs []float64
	for _, l := range holdout.Labels {
		pred, _ := m.PredictPlanScratch(l.Root, plan.TrueCards, &s)
		qs = append(qs, qerror.QError(pred.Seconds(), medianDuration(l.Totals).Seconds()))
	}
	return qs
}

func medianDuration(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// runRetrain is the retrain workload: sequential ctrl.Controller.Retrain
// episodes over a seeded TPC-H instance with real engine execution, default
// training parameters, an fsynced registry in a scratch directory, and a
// serve.Server as the swap target. One operation is one collected label.
func runRetrain(e *env, traced bool) (*report, error) {
	r := newReport()
	st, err := timeSetup(r, setupReps(traced), func() (*retrainState, error) { return setupRetrain(e) },
		func(st *retrainState) { st.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	r.prop("instance tpch scale %.2f, %d queries per group, %d timing runs, holdout %.2f, cycle of %d query seeds from %d",
		retrainScale, retrainPerGroup, retrainRuns, holdoutFraction, retrainCycle, retrainQuerySeed)
	if traced {
		return r, traceRetrain(e, r, st)
	}
	heap := watchHeap()
	var lat samples
	var eps []episode
	labels := 0
	start := time.Now()
	for i := 0; i%retrainCycle != 0 || time.Since(start) < e.measure; i++ {
		ep, times := st.runEpisode(r, i)
		for _, d := range times {
			lat.add(d)
		}
		labels += len(times)
		eps = append(eps, ep)
	}
	elapsed := time.Since(start)
	r.set("heap_mb", heap.meanMB())
	latencyMetrics(r, &lat, labels, elapsed, "labels")

	var took, qs []float64
	promoted := 0
	var lb, rows []string
	for _, ep := range eps {
		took = append(took, ep.took.Seconds())
		qs = append(qs, ep.qerrors...)
		if ep.promoted {
			promoted++
		}
		lb = append(lb, fmt.Sprint(ep.labels))
		rows = append(rows, fmt.Sprint(ep.trainRows))
	}
	r.prop("episodes %d promoted %d", len(eps), promoted)
	r.prop("labels_per_episode %s", strings.Join(lb, " "))
	r.prop("training_rows_per_episode %s", strings.Join(rows, " "))
	r.setExtra("retrain_s", median(took), "s")
	r.setExtra("labels_per_s", float64(labels)/elapsed.Seconds(), "1/s")
	r.setExtra("qerror_p50", median(qs), "ratio")
	return r, nil
}

// traceRetrain runs controller episodes untraced for half the time (the
// promoted share and the untraced episode time), then replays episodes
// step by step through the functions the controller calls, with a span
// per step: CollectLabels, Split, FromLabels, t3.Train, a holdout shadow
// pass, registry Put and Load, and SetModel.
func traceRetrain(e *env, r *report, st *retrainState) error {
	half := e.measure / 2
	var untraced time.Duration
	eps, promoted := 0, 0
	gc0 := numGC()
	for start := time.Now(); eps%retrainCycle != 0 || time.Since(start) < half; eps++ {
		ep, _ := st.runEpisode(r, eps)
		untraced += ep.took
		if ep.promoted {
			promoted++
		}
	}
	r.set("ctrl.promoted_share", float64(promoted)/float64(eps))
	r.set("runtime.gc_cycles", float64(numGC()-gc0))

	tr := newTracer(time.Now())
	cfg := collectConfig()
	var pipeNs, tuples int64
	var rows, artifactBytes int
	morsels0, par0 := obs.ExecMorsels.Value(), obs.ExecParallelPipelines.Value()
	n := 0
	for start := time.Now(); n%retrainCycle != 0 || time.Since(start) < half; n++ {
		req := int64(n)
		root := tr.begin("ctrl.episode", req, -1)
		sp := tr.begin("workload.collect", req, root)
		c := cfg
		c.Seed += int64(n % retrainCycle)
		ls, err := workload.CollectLabels(st.inst, c)
		tr.end(sp)
		if err != nil {
			tr.end(root)
			r.check(false)
			continue
		}
		sp = tr.begin("workload.split", req, root)
		train, holdout := ls.Split(holdoutFraction)
		tr.end(sp)
		sp = tr.begin("benchdata.from_labels", req, root)
		benched := benchdata.FromLabels(train)
		tr.end(sp)
		sp = tr.begin("gbdt.train", req, root)
		cand, err := t3.Train(benched, t3.TrainOptions{})
		tr.end(sp)
		if err != nil {
			tr.end(root)
			r.check(false)
			continue
		}
		sp = tr.begin("ctrl.shadow", req, root)
		holdoutQErrors(cand, ls)
		holdoutQErrors(st.srv.Model(), ls)
		tr.end(sp)
		sp = tr.begin("registry.put", req, root)
		ver, err := st.reg.Put(&registry.Artifact{
			Meta: registry.Meta{CreatedUnixNs: time.Now().UnixNano(), Source: "perfbench",
				TrainLabels: len(train.Labels), HoldoutLabels: len(holdout.Labels)},
			GBM: cand.Boosted(),
		})
		tr.end(sp)
		if err == nil {
			if fi, serr := os.Stat(st.reg.Path(ver)); serr == nil {
				artifactBytes += int(fi.Size())
			}
			sp = tr.begin("registry.load", req, root)
			_, err = st.reg.Load(ver)
			tr.end(sp)
		}
		sp = tr.begin("serve.swap", req, root)
		st.srv.SetModel(cand)
		tr.end(sp)
		tr.end(root)
		r.check(err == nil)

		rows += trainingRows(benched)
		for _, l := range ls.Labels {
			for _, run := range l.PipelineRuns {
				for p, d := range run {
					pipeNs += int64(d)
					tuples += int64(l.SourceRows[p])
				}
			}
		}
	}
	lt := selfTimes(tr)
	r.set("workload.collect_s", perOp(lt, "workload.collect", n)/1e9)
	r.set("exec.ns_per_tuple", float64(pipeNs)/float64(max(1, tuples)))
	r.set("exec.morsels", float64(obs.ExecMorsels.Value()-morsels0)/float64(n))
	r.set("exec.parallel_pipelines", float64(obs.ExecParallelPipelines.Value()-par0)/float64(n))
	r.set("gbdt.train_s", perOp(lt, "gbdt.train", n)/1e9)
	r.set("gbdt.rows", float64(rows)/float64(n))
	r.set("ctrl.shadow_ms", perOp(lt, "ctrl.shadow", n)/1e6)
	r.set("registry.put_ms", perOp(lt, "registry.put", n)/1e6)
	r.set("registry.load_ms", perOp(lt, "registry.load", n)/1e6)
	r.set("registry.artifact_bytes", float64(artifactBytes)/float64(n))
	r.set("serve.swap_us", perOp(lt, "serve.swap", n)/1e3)
	r.set("trace.overhead_ns", float64(lt["ctrl.episode"].total)/float64(n)-float64(untraced)/float64(eps))
	r.set("trace.spans", float64(spanCount(tr)))
	return finishTrace(e, r, "retrain", tr)
}
