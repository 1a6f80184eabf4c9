// Package treec compiles gradient-boosted tree ensembles for low-latency
// evaluation — the stand-in for the lleaves/LLVM compiler in the paper
// (§2.6).
//
// Four evaluation tiers are provided:
//
//  1. The interpreted tier lives in package gbdt: pointer-walking over node
//     structs, analogous to LightGBM's built-in evaluator.
//  2. Flatten converts the ensemble into contiguous struct-of-arrays form
//     evaluated by a tight loop — removing per-tree allocation, bounds
//     checks via slicing, and pointer chasing.
//  3. Pack (packed.go) is the cache-packed serving tier: every node is one
//     16-byte record (float32 threshold, uint16 feature id, int32 children
//     with leaf values folded into a unified array), trees laid out
//     root-first in breadth-first blocks, with a blocked batch kernel that
//     evaluates several vectors per tree pass — the lleaves-style node
//     packing the paper's ~4 µs single-query latency depends on.
//  4. GenGo emits Go source: each internal node becomes one comparison and
//     one branch, each leaf a return — exactly the instruction shape lleaves
//     produces (§2.6, "Model Compilation"). The emitted package is compiled
//     ahead of time by the Go compiler into native machine code; like in
//     the paper, compilation happens once after training and adds nothing
//     to inference latency. Emitted thresholds follow the packed tier's
//     float32 round-up contract, so generated code and Pack are
//     bit-equivalent on every input.
package treec

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"

	"t3/internal/gbdt"
	"t3/internal/par"
)

// Flat is a compiled (struct-of-arrays) form of a tree ensemble.
type Flat struct {
	// Per-node arrays; children ≥ 0 index nodes, negative children c refer
	// to leaf ^c.
	Feature   []int32
	Threshold []float64
	Left      []int32
	Right     []int32
	// TreeStart holds the root node index of every multi-node tree.
	TreeStart []int32
	Leaves    []float64
	// Base includes the model base score plus all single-leaf trees.
	Base        float64
	NumFeatures int
}

// Flatten compiles a model into its flat form.
func Flatten(m *gbdt.Model) *Flat {
	f := &Flat{Base: m.BaseScore, NumFeatures: m.NumFeatures}
	for ti := range m.Trees {
		t := &m.Trees[ti]
		if len(t.Nodes) == 0 {
			// Constant tree: fold into the base score.
			f.Base += t.Leaves[0]
			continue
		}
		nodeOff := int32(len(f.Feature))
		leafOff := int32(len(f.Leaves))
		f.TreeStart = append(f.TreeStart, nodeOff)
		for _, n := range t.Nodes {
			l, r := n.Left, n.Right
			if l >= 0 {
				l += nodeOff
			} else {
				l = ^(^l + leafOff)
			}
			if r >= 0 {
				r += nodeOff
			} else {
				r = ^(^r + leafOff)
			}
			f.Feature = append(f.Feature, n.Feature)
			f.Threshold = append(f.Threshold, n.Threshold)
			f.Left = append(f.Left, l)
			f.Right = append(f.Right, r)
		}
		f.Leaves = append(f.Leaves, t.Leaves...)
	}
	return f
}

// Predict evaluates the compiled ensemble for one feature vector.
func (f *Flat) Predict(v []float64) float64 {
	s := f.Base
	feat, thr, left, right, leaves := f.Feature, f.Threshold, f.Left, f.Right, f.Leaves
	for _, root := range f.TreeStart {
		i := root
		for {
			if v[feat[i]] <= thr[i] {
				i = left[i]
			} else {
				i = right[i]
			}
			if i < 0 {
				s += leaves[^i]
				break
			}
		}
	}
	return s
}

// PredictBatch evaluates many vectors sequentially.
func (f *Flat) PredictBatch(vs [][]float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = f.Predict(v)
	}
	return out
}

// PredictBatchParallel evaluates many vectors across a cached worker pool
// (0 means the GOMAXPROCS in force at the call); explicit worker counts reuse
// process-wide pools via par.Sized, so no goroutines are constructed or torn
// down per call. Used to reproduce the multi-threaded interpretation line of
// Figure 5.
func (f *Flat) PredictBatchParallel(vs [][]float64, workers int) []float64 {
	out := make([]float64, len(vs))
	pool := par.Sized(workers)
	chunk := len(vs)/(4*pool.Workers()) + 1
	pool.For(len(vs), chunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f.Predict(vs[i])
		}
	})
	return out
}

// GenGo writes a Go source file for the model: package pkg exposing
//
//	func Predict(v []float64) float64
//	func PredictBatch(vs [][]float64) []float64
//	func NumFeatures() int
//	func NumTrees() int
//
// Every internal node compiles to one comparison and one branch; every leaf
// to a return — the lleaves instruction shape. Thresholds are emitted under
// the packed tier's contract: the float64 value of the float32 round-up of
// the trained threshold (RoundThreshold32), so the generated code is
// bit-equivalent to Pack on every input, and to the float64 tiers on every
// input outside the documented rounding gaps. The file carries a
// "Code generated" marker so linters skip it.
func GenGo(m *gbdt.Model, pkg string, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "// Code generated by t3compile; DO NOT EDIT.\n\n")
	fmt.Fprintf(bw, "// Package %s is the ahead-of-time compiled form of a trained T3 model:\n", pkg)
	fmt.Fprintf(bw, "// each decision node is a comparison and a branch, each leaf a return.\n")
	fmt.Fprintf(bw, "package %s\n\n", pkg)

	base := m.BaseScore
	var funcs []int
	for ti := range m.Trees {
		if len(m.Trees[ti].Nodes) == 0 {
			base += m.Trees[ti].Leaves[0]
			continue
		}
		funcs = append(funcs, ti)
	}

	fmt.Fprintf(bw, "// NumFeatures returns the expected feature-vector length.\n")
	fmt.Fprintf(bw, "func NumFeatures() int { return %d }\n\n", m.NumFeatures)
	fmt.Fprintf(bw, "// NumTrees returns the number of compiled trees.\n")
	fmt.Fprintf(bw, "func NumTrees() int { return %d }\n\n", len(funcs))

	fmt.Fprintf(bw, "// Predict evaluates the compiled ensemble for one feature vector.\n")
	fmt.Fprintf(bw, "func Predict(v []float64) float64 {\n")
	fmt.Fprintf(bw, "\ts := %s\n", gofloat(base))
	for i := range funcs {
		fmt.Fprintf(bw, "\ts += tree%d(v)\n", i)
	}
	fmt.Fprintf(bw, "\treturn s\n}\n\n")

	fmt.Fprintf(bw, "// PredictBatch evaluates the ensemble for many vectors.\n")
	fmt.Fprintf(bw, "func PredictBatch(vs [][]float64) []float64 {\n")
	fmt.Fprintf(bw, "\tout := make([]float64, len(vs))\n")
	fmt.Fprintf(bw, "\tfor i, v := range vs {\n\t\tout[i] = Predict(v)\n\t}\n\treturn out\n}\n\n")

	for i, ti := range funcs {
		t := &m.Trees[ti]
		fmt.Fprintf(bw, "func tree%d(v []float64) float64 {\n", i)
		genNode(bw, t, 0, 1)
		fmt.Fprintf(bw, "}\n\n")
	}
	return bw.Flush()
}

// genNode emits the if/else chain for node ni of t at the given indent.
func genNode(w io.Writer, t *gbdt.Tree, ni int32, depth int) {
	ind := indent(depth)
	n := &t.Nodes[ni]
	fmt.Fprintf(w, "%sif v[%d] <= %s {\n", ind, n.Feature, gofloat(float64(RoundThreshold32(n.Threshold))))
	genChild(w, t, n.Left, depth+1)
	fmt.Fprintf(w, "%s}\n", ind)
	genChild(w, t, n.Right, depth)
}

// genChild emits either a return (leaf) or a nested node.
func genChild(w io.Writer, t *gbdt.Tree, c int32, depth int) {
	if c < 0 {
		fmt.Fprintf(w, "%sreturn %s\n", indent(depth), gofloat(t.Leaves[^c]))
		return
	}
	genNode(w, t, c, depth)
}

func indent(depth int) string {
	const tabs = "\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t"
	if depth <= len(tabs) {
		return tabs[:depth]
	}
	b := make([]byte, depth)
	for i := range b {
		b[i] = '\t'
	}
	return string(b)
}

// gofloat formats a float64 as a Go literal that parses back to the exact
// same value.
func gofloat(f float64) string {
	if math.IsInf(f, 1) {
		return "math.Inf(1)"
	}
	if math.IsInf(f, -1) {
		return "math.Inf(-1)"
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	// Ensure the literal is a float (e.g. "3" -> "3.0") so arithmetic stays
	// in float64.
	for _, c := range s {
		if c == '.' || c == 'e' || c == 'E' || c == 'N' {
			return s
		}
	}
	return s + ".0"
}
