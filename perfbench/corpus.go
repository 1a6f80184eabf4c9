package main

import (
	"fmt"
	"strings"
	"time"

	t3 "t3"
	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/workload"
)

// corpusScale sizes the instances the plan corpus is generated on. Plan
// shapes and cardinality annotations, not table sizes, drive prediction
// cost, so small instances keep set-up short.
const corpusScale = 0.05

// corpusPerGroup is the generated queries per structure group and
// instance: 16 groups x 4 instances x 7, plus the TPC-DS benchmark
// queries, gives about 500 plans.
const corpusPerGroup = 7

// corpusQuerySeed is the query generator's seed. It is fixed, and the
// workload seed varies the instances' data: the generator's query costs
// are heavy-tailed, so a query set drawn from the seed would make set-up
// time depend on how many very expensive queries it drew.
const corpusQuerySeed = 1

// corpus is the plan corpus of the predict and serve workloads: generated
// TPC-H, TPC-DS, IMDB and synthetic queries plus the TPC-DS benchmark
// queries over seeded instances, annotated with true cardinalities, and
// the model's answer for each plan.
type corpus struct {
	roots []*plan.Node
	pipes []int           // pipelines per plan
	refs  []time.Duration // PredictPlan answers, the reference every check uses
}

func buildCorpus(m *t3.Model, seed int64) (*corpus, error) {
	tpcds := workload.MustGenerate(workload.TPCDSSpec("tpcds", corpusScale, seed+2))
	insts := []*workload.Instance{
		workload.MustGenerate(workload.TPCHSpec("tpch", corpusScale, seed+1)),
		tpcds,
		workload.MustGenerate(workload.IMDBSpec("imdb", corpusScale, seed+3)),
		workload.MustGenerate(workload.SyntheticSpec("synthetic", seed+4, corpusScale)),
	}
	var qs []*workload.Query
	for _, in := range insts {
		qs = append(qs, workload.GenerateQueries(in, workload.GenConfig{PerGroup: corpusPerGroup, Seed: corpusQuerySeed})...)
	}
	qs = append(qs, workload.TPCDSBenchmarkQueries(tpcds)...)

	c := &corpus{}
	for _, q := range qs {
		if err := exec.AnnotateTrueCards(q.Root); err != nil {
			return nil, fmt.Errorf("annotating %s: %w", q.Name, err)
		}
		// Prediction reads annotations only; dropping the table pointers
		// lets the generated data be collected.
		q.Root.Walk(func(n *plan.Node) { n.Table = nil })
		ref, preds := m.PredictPlan(q.Root, plan.TrueCards)
		c.roots = append(c.roots, q.Root)
		c.pipes = append(c.pipes, len(preds))
		c.refs = append(c.refs, ref)
	}
	return c, nil
}

// pipelineHistogram renders the plans-per-pipeline-count histogram, with
// six or more pipelines in one bucket.
func (c *corpus) pipelineHistogram() string {
	var h [7]int
	for _, n := range c.pipes {
		h[min(n, 6)]++
	}
	var b strings.Builder
	for n := 1; n <= 6; n++ {
		label := fmt.Sprint(n)
		if n == 6 {
			label = "6+"
		}
		fmt.Fprintf(&b, " %s:%d", label, h[n])
	}
	return strings.TrimSpace(b.String())
}
