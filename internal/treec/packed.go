package treec

import (
	"fmt"
	"math"
	"sync"

	"t3/internal/gbdt"
	"t3/internal/par"
)

// PackedNode is one decision node in the cache-packed layout: exactly 16
// bytes, so four nodes share each 64-byte cache line. Children ≥ 0 are
// absolute indices into Packed.Nodes; a negative child c refers to leaf ^c in
// the unified Packed.Leaves array.
//
// Thr is the float32 round-up of the trained float64 threshold (see
// RoundThreshold32); the comparison contract is v[Feature] <= float64(Thr).
type PackedNode struct {
	Thr     float32
	Feature uint16
	_       uint16
	Left    int32
	Right   int32
}

// Packed is the cache-packed compiled form of a tree ensemble: every node is
// a 16-byte record, trees are laid out root-first in breadth-first order so
// the hot top levels of consecutive trees stay within a few cache lines, and
// all leaf values live in one unified float64 array.
//
// Threshold contract: thresholds are stored as float32, rounded toward +∞
// (the smallest float32 ≥ the trained float64 threshold), and compared as
// v <= float64(thr32). This preserves the trained partition exactly for every
// input that satisfied v <= t64 — ties included — and for every input value
// exactly representable in float32. The only inputs that can switch sides are
// those in the half-open rounding gap (t64, float64(thr32)], at most one
// float32 ulp wide; Exact reports whether the model has any such gap at all.
type Packed struct {
	Nodes []PackedNode
	// Roots holds the root node index of every multi-node tree.
	Roots  []int32
	Leaves []float64
	// Base includes the model base score plus all single-leaf trees.
	Base        float64
	NumFeatures int
	// Exact is true when every threshold round-trips through float32, i.e.
	// predictions are bit-identical to the float64 Flat tier for all inputs.
	Exact bool

	// rowsL is the flat-row batch kernel's private layout (see rows.go),
	// compiled lazily on first use.
	rowsOnce sync.Once
	rowsL    *rowsLayout
}

// RoundThreshold32 returns the smallest float32 whose float64 value is ≥ t —
// the rounding direction that keeps every trained v <= t decision (ties
// included) on its original side. Pack, GenGo, and the generated code all use
// this same threshold, which is what makes the tiers bit-equivalent to each
// other.
func RoundThreshold32(t float64) float32 {
	f := float32(t)
	if float64(f) < t {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// Pack compiles a model into the packed form. It panics if the model exceeds
// the packed index space (65536 features or 2³¹ nodes/leaves) — far beyond
// any T3 configuration.
func Pack(m *gbdt.Model) *Packed {
	if m.NumFeatures > math.MaxUint16+1 {
		panic(fmt.Sprintf("treec: %d features exceed packed uint16 feature ids", m.NumFeatures))
	}
	p := &Packed{Base: m.BaseScore, NumFeatures: m.NumFeatures, Exact: true}
	for ti := range m.Trees {
		t := &m.Trees[ti]
		if len(t.Nodes) == 0 {
			// Constant tree: fold into the base score (same order as Flatten
			// and GenGo, so all tiers share one Base).
			p.Base += t.Leaves[0]
			continue
		}
		nodeOff := int32(len(p.Nodes))
		leafOff := int32(len(p.Leaves))
		p.Roots = append(p.Roots, nodeOff)

		// Breadth-first relabeling: bfs[i] is the original index of the node
		// at packed position nodeOff+i. Root-first BFS keeps the top levels —
		// the nodes every prediction visits — contiguous at the front of each
		// tree's block.
		bfs := make([]int32, 0, len(t.Nodes))
		pos := make([]int32, len(t.Nodes))
		bfs = append(bfs, 0)
		for i := 0; i < len(bfs); i++ {
			n := &t.Nodes[bfs[i]]
			pos[bfs[i]] = int32(i)
			if n.Left >= 0 {
				bfs = append(bfs, n.Left)
			}
			if n.Right >= 0 {
				bfs = append(bfs, n.Right)
			}
		}
		for _, oi := range bfs {
			n := &t.Nodes[oi]
			l, r := n.Left, n.Right
			if l >= 0 {
				l = nodeOff + pos[l]
			} else {
				l = ^(^l + leafOff)
			}
			if r >= 0 {
				r = nodeOff + pos[r]
			} else {
				r = ^(^r + leafOff)
			}
			thr := RoundThreshold32(n.Threshold)
			if float64(thr) != n.Threshold {
				p.Exact = false
			}
			p.Nodes = append(p.Nodes, PackedNode{
				Thr:     thr,
				Feature: uint16(n.Feature),
				Left:    l,
				Right:   r,
			})
		}
		p.Leaves = append(p.Leaves, t.Leaves...)
	}
	return p
}

// Predict evaluates the packed ensemble for one feature vector.
func (p *Packed) Predict(v []float64) float64 {
	s := p.Base
	nodes, leaves := p.Nodes, p.Leaves
	for _, root := range p.Roots {
		i := root
		for {
			n := &nodes[i]
			if v[n.Feature] <= float64(n.Thr) {
				i = n.Left
			} else {
				i = n.Right
			}
			if i < 0 {
				s += leaves[^i]
				break
			}
		}
	}
	return s
}

// predictBlockK is the number of vectors evaluated per tree pass in the
// blocked batch kernel: each tree's hot nodes are loaded once and reused
// across K walks instead of being evicted between full-ensemble traversals.
const predictBlockK = 8

// PredictInto evaluates many vectors into a caller-owned output slice
// (len(out) must equal len(vs)) without allocating. Vectors are processed in
// blocks of K per tree pass; per output element, tree contributions are still
// added in tree order, so results are bit-identical to Predict.
func (p *Packed) PredictInto(vs [][]float64, out []float64) {
	if len(out) != len(vs) {
		panic(fmt.Sprintf("treec: PredictInto out has len %d, want %d", len(out), len(vs)))
	}
	nodes, leaves := p.Nodes, p.Leaves
	for lo := 0; lo < len(vs); lo += predictBlockK {
		hi := min(lo+predictBlockK, len(vs))
		blk, o := vs[lo:hi], out[lo:hi]
		for k := range o {
			o[k] = p.Base
		}
		for _, root := range p.Roots {
			for k, v := range blk {
				i := root
				for {
					n := &nodes[i]
					if v[n.Feature] <= float64(n.Thr) {
						i = n.Left
					} else {
						i = n.Right
					}
					if i < 0 {
						o[k] += leaves[^i]
						break
					}
				}
			}
		}
	}
}

// PredictBatch evaluates many vectors through the blocked kernel.
func (p *Packed) PredictBatch(vs [][]float64) []float64 {
	out := make([]float64, len(vs))
	p.PredictInto(vs, out)
	return out
}

// PredictBatchParallel evaluates many vectors across a cached worker pool
// (0 means the GOMAXPROCS in force at the call); no pool is constructed or torn
// down per call. Chunks are multiples of the block size so the blocked kernel
// runs at full width on every worker.
func (p *Packed) PredictBatchParallel(vs [][]float64, workers int) []float64 {
	out := make([]float64, len(vs))
	pool := par.Sized(workers)
	chunk := len(vs)/(4*pool.Workers()) + 1
	if r := chunk % predictBlockK; r != 0 {
		chunk += predictBlockK - r
	}
	pool.For(len(vs), chunk, func(lo, hi int) {
		p.PredictInto(vs[lo:hi], out[lo:hi])
	})
	return out
}

// PredictRowsInto evaluates nrows = len(out) row-major feature vectors stored
// contiguously in rows (row i is rows[i*stride : (i+1)*stride]) into the
// caller-owned out slice, fanning block-aligned chunks across the given pool
// (nil or single-worker runs serially and allocation-free). Every row's tree
// contributions are added in tree order regardless of blocking, chunking, or
// worker count, so each out[i] is bit-identical to Predict(row i) — the
// determinism contract the level-batched join enumerator is built on.
func (p *Packed) PredictRowsInto(rows []float64, stride int, out []float64, pool *par.Pool) {
	nrows := len(out)
	if stride <= 0 || len(rows) < nrows*stride {
		panic(fmt.Sprintf("treec: PredictRowsInto rows has %d floats, want >= %d x %d", len(rows), nrows, stride))
	}
	if pool.Workers() > 1 && nrows >= 2*predictBlockK {
		chunk := nrows/(4*pool.Workers()) + 1
		if r := chunk % predictBlockK; r != 0 {
			chunk += predictBlockK - r
		}
		pool.For(nrows, chunk, func(lo, hi int) {
			p.predictRows(rows[lo*stride:hi*stride], stride, out[lo:hi])
		})
		return
	}
	p.predictRows(rows[:nrows*stride], stride, out)
}

// predictRows is the serial flat-row kernel behind PredictRowsInto: the
// branchless fixed-depth layout when the ensemble fits it (see rows.go), the
// generic blocked walker otherwise.
func (p *Packed) predictRows(rows []float64, stride int, out []float64) {
	if g := p.rowsKernel(); g.ok {
		p.predictRowsFast(g, rows, stride, out)
		return
	}
	p.predictRowsBlocked(rows, stride, out)
}

// predictRowsBlocked is the generic blocked fallback walker.
func (p *Packed) predictRowsBlocked(rows []float64, stride int, out []float64) {
	nodes, leaves := p.Nodes, p.Leaves
	for lo := 0; lo < len(out); lo += predictBlockK {
		hi := min(lo+predictBlockK, len(out))
		o := out[lo:hi]
		for k := range o {
			o[k] = p.Base
		}
		for _, root := range p.Roots {
			for k := range o {
				v := rows[(lo+k)*stride : (lo+k+1)*stride]
				i := root
				for {
					n := &nodes[i]
					if v[n.Feature] <= float64(n.Thr) {
						i = n.Left
					} else {
						i = n.Right
					}
					if i < 0 {
						o[k] += leaves[^i]
						break
					}
				}
			}
		}
	}
}

// InRoundingGap reports whether any feature value of v lies inside the
// float32 rounding gap of any node threshold of f: the half-open interval
// (t64, float64(RoundThreshold32(t64))]. Those are exactly the inputs on
// which the packed tier (and the generated code, which shares its thresholds)
// may legitimately disagree with the float64 Flat tier; tests use this to pin
// the equivalence contract.
func (f *Flat) InRoundingGap(v []float64) bool {
	for i, t64 := range f.Threshold {
		up := float64(RoundThreshold32(t64))
		if up != t64 {
			x := v[f.Feature[i]]
			if x > t64 && x <= up {
				return true
			}
		}
	}
	return false
}
