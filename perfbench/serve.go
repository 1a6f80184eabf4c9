package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	t3 "t3"
	"t3/internal/coalesce"
	"t3/internal/engine/plan"
	"t3/internal/obs"
	"t3/internal/predcache"
	"t3/internal/serve"
	"t3/internal/wire"
)

// freshShare is the share of serve requests that carry a plan not seen
// before; the rest repeat a corpus plan, so p50 falls among cache hits and
// p99 among misses.
const freshShare = 0.25

// serveCallers is the number of closed-loop TCP connections.
const serveCallers = 2

// reqRecord is one request as its caller saw it.
type reqRecord struct {
	at     time.Duration // send time since the phase started
	factor float64       // cardinality scale of a fresh plan; 0 for a repeat
	resp   int64         // predicted ns in the answer; -1 for an error answer
	tmpl   int32         // corpus plan the frame was made from
}

// stream generates one caller's seeded request frames.
type stream struct {
	rng *rand.Rand
	hot [][]byte
	dec wire.Decoder
	buf []byte
}

func newStream(seed int64, caller int, hot [][]byte) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed*7919 + int64(caller))), hot: hot}
}

// next returns the next request frame, the corpus plan it was made from,
// and the fresh scale factor (0 for a repeat). A fresh frame is a corpus
// plan with every output cardinality scaled by a seeded factor in
// [0.5, 1), like the same query re-run with new parameter values, so its
// fingerprint is new.
func (s *stream) next() ([]byte, int32, float64, error) {
	tmpl := int32(s.rng.Intn(len(s.hot)))
	if s.rng.Float64() >= freshShare {
		return s.hot[tmpl], tmpl, 0, nil
	}
	factor := 0.5 + 0.5*s.rng.Float64()
	root, err := scaledPlan(&s.dec, s.hot[tmpl], factor)
	if err != nil {
		return nil, 0, 0, err
	}
	s.buf = wire.AppendFrame(s.buf[:0], root, plan.TrueCards)
	return s.buf, tmpl, factor, nil
}

// scaledPlan decodes a corpus frame and scales its output cardinalities.
func scaledPlan(dec *wire.Decoder, frame []byte, factor float64) (*plan.Node, error) {
	root, err := dec.Decode(frame[wire.HeaderSize:])
	if err != nil {
		return nil, fmt.Errorf("decoding corpus frame: %w", err)
	}
	root.Walk(func(n *plan.Node) { n.OutCard.True *= factor })
	return root, nil
}

type serveState struct {
	m      *t3.Model
	c      *corpus
	frames [][]byte   // one request frame per corpus plan
	keys   []wire.Key // PlanKey of each corpus plan
	srv    *serve.Server
	ln     net.Listener
	served chan error // ServeTCP's result
	conns  []net.Conn
}

func (st *serveState) close() {
	for _, c := range st.conns {
		c.Close()
	}
	st.ln.Close()
	<-st.served
}

// setupServe builds the corpus and its frames, starts a default-config
// serve.Server on a loopback listener (wrapped by wrap when non-nil) and
// dials the callers' connections.
func setupServe(e *env, wrap func(net.Listener) net.Listener) (*serveState, error) {
	m, err := e.loadModel()
	if err != nil {
		return nil, err
	}
	c, err := buildCorpus(m, e.seed)
	if err != nil {
		return nil, err
	}
	st := &serveState{m: m, c: c, srv: serve.New(m, serve.Config{}), served: make(chan error, 1)}
	for _, root := range c.roots {
		st.frames = append(st.frames, wire.AppendFrame(nil, root, plan.TrueCards))
		st.keys = append(st.keys, wire.PlanKey(root, plan.TrueCards))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	if wrap != nil {
		ln = wrap(ln)
	}
	st.ln = ln
	go func() { st.served <- st.srv.ServeTCP(ln) }()
	for i := 0; i < serveCallers; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			st.close()
			return nil, fmt.Errorf("dialing the server: %w", err)
		}
		st.conns = append(st.conns, conn)
	}
	return st, nil
}

// caller is one closed-loop TCP connection: it sends a frame, waits for
// the answer, then sends the next.
type caller struct {
	conn net.Conn
	rd   *bufio.Reader
	resp [wire.HeaderSize + 8]byte
}

func newCaller(conn net.Conn) *caller {
	return &caller{conn: conn, rd: bufio.NewReaderSize(conn, 4<<10)}
}

// roundTrip sends one frame and reads its answer: the predicted ns, or -1
// when the server answered with an error frame.
func (c *caller) roundTrip(frame []byte) (int64, error) {
	if _, err := c.conn.Write(frame); err != nil {
		return 0, fmt.Errorf("sending a frame: %w", err)
	}
	if _, err := io.ReadFull(c.rd, c.resp[:wire.HeaderSize]); err != nil {
		return 0, fmt.Errorf("reading an answer: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(c.resp[4:8]))
	if n != 8 {
		if _, err := c.rd.Discard(n); err != nil {
			return 0, fmt.Errorf("reading an answer: %w", err)
		}
		return -1, nil
	}
	if _, err := io.ReadFull(c.rd, c.resp[wire.HeaderSize:]); err != nil {
		return 0, fmt.Errorf("reading an answer: %w", err)
	}
	v, err := wire.ParseResponse(c.resp[:])
	if err != nil {
		return -1, nil
	}
	return v, nil
}

// tcpPhase is what driveTCP measured.
type tcpPhase struct {
	warm, recs []reqRecord
	rtt        []time.Duration // sorted
	elapsed    time.Duration
	heapMB     float64 // mean live heap, when driveTCP was given a watch
}

// driveTCP warms the server's cache with every corpus plan once, then runs
// the callers' closed loops for d. A non-nil heap watch ends when the loops
// do, before their records are gathered.
func driveTCP(st *serveState, seed int64, d time.Duration, heap *heapWatch) (*tcpPhase, error) {
	callers := make([]*caller, len(st.conns))
	for i, conn := range st.conns {
		callers[i] = newCaller(conn)
	}
	ph := &tcpPhase{}
	for i, f := range st.frames {
		v, err := callers[0].roundTrip(f)
		if err != nil {
			return nil, err
		}
		ph.warm = append(ph.warm, reqRecord{resp: v, tmpl: int32(i)})
	}

	lat := make([]samples, len(callers))
	recs := make([]chunked[reqRecord], len(callers))
	errs := make([]error, len(callers))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newStream(seed, i, st.frames)
			for {
				frame, tmpl, factor, err := s.next()
				if err != nil {
					errs[i] = err
					return
				}
				t0 := time.Now()
				v, err := c.roundTrip(frame)
				t1 := time.Now()
				if err != nil {
					errs[i] = err
					return
				}
				lat[i].add(t1.Sub(t0))
				recs[i].add(reqRecord{at: t0.Sub(start), factor: factor, resp: v, tmpl: tmpl})
				if t1.After(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	if heap != nil {
		ph.heapMB = heap.meanMB()
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i := range callers {
		ph.rtt = append(ph.rtt, lat[i].drain()...)
		ph.recs = append(ph.recs, recs[i].drain()...)
	}
	slices.Sort(ph.rtt)
	slices.SortFunc(ph.recs, func(a, b reqRecord) int { return int(a.at - b.at) })
	return ph, nil
}

// verifyServe checks every answer against the reference prediction of its
// frame's plan — the set-up answer for a corpus plan, PredictPlan on the
// same scaled plan for a fresh one — and returns the share of measured
// requests whose fingerprint was seen earlier in the run.
func verifyServe(r *report, st *serveState, warm, recs []reqRecord) float64 {
	seen := map[wire.Key]struct{}{}
	var dec wire.Decoder
	var ps t3.PredictScratch
	repeats := 0
	for i, rec := range append(warm, recs...) {
		key, want := st.keys[rec.tmpl], st.c.refs[rec.tmpl]
		if rec.factor != 0 {
			root, err := scaledPlan(&dec, st.frames[rec.tmpl], rec.factor)
			if err != nil {
				r.check(false)
				continue
			}
			key = wire.PlanKey(root, plan.TrueCards)
			want, _ = st.m.PredictPlanScratch(root, plan.TrueCards, &ps)
		}
		if _, ok := seen[key]; ok && i >= len(warm) {
			repeats++
		}
		seen[key] = struct{}{}
		r.check(rec.resp == want.Nanoseconds())
	}
	return float64(repeats) / float64(max(1, len(recs)))
}

// runServe is the serve workload: an in-process serve.Server with its
// default Config (cache and coalescing on) behind ServeTCP on a loopback
// listener, driven by two closed-loop connections; a quarter of requests
// carry fresh plans.
func runServe(e *env, traced bool) (*report, error) {
	r := newReport()
	var wrap func(net.Listener) net.Listener
	var counted *countingListener
	if traced {
		wrap = func(l net.Listener) net.Listener {
			counted = &countingListener{Listener: l}
			return counted
		}
	}
	st, err := timeSetup(r, setupReps(traced), func() (*serveState, error) {
		return setupServe(e, wrap)
	}, func(st *serveState) { st.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	r.prop("hot_plans %d pipelines_per_plan %s", len(st.frames), st.c.pipelineHistogram())
	r.prop("callers %d closed-loop TCP connections, fresh share %.2f", serveCallers, freshShare)
	if traced {
		return r, traceServe(e, r, st, counted)
	}
	ph, err := driveTCP(st, e.seed, e.measure, watchHeap())
	if err != nil {
		return nil, err
	}
	r.set("heap_mb", ph.heapMB)
	r.set("p50_us", percentileUs(ph.rtt, 0.50))
	r.set("p99_us", percentileUs(ph.rtt, 0.99))
	r.set("ops_per_s", float64(len(ph.recs))/ph.elapsed.Seconds())
	r.prop("samples %d requests", len(ph.rtt))
	r.prop("serve.repeat_share %.4f", verifyServe(r, st, ph.warm, ph.recs))
	return r, nil
}

// countingListener counts the Read and Write calls on the connections it
// accepts: the server's syscalls per request.
type countingListener struct {
	net.Listener
	reads, writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(b []byte) (int, error) {
	c.l.reads.Add(1)
	return c.Conn.Read(b)
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(b)
}

// traceServe measures the serve layers. A TCP pass through the counting
// listener gives round trips, syscalls per request and the server's cache
// and coalescer counters. Then the same request streams are replayed from
// two goroutines through the layers the server calls — ParseHeader,
// Decoder.Decode, PlanKey, predcache Get/Put, coalesce.Batcher.Predict
// with its dispatch to PredictBatchInto timed on its own — once untraced
// and once traced.
func traceServe(e *env, r *report, st *serveState, counted *countingListener) error {
	hits0, miss0, evict0 := obs.ServeCacheHits.Value(), obs.ServeCacheMisses.Value(), obs.ServeCacheEvictions.Value()
	batches0, bsize0 := obs.ServeCoalesceBatches.Value(), obs.ServeCoalesceBatchSize.Snapshot().Sum
	reads0, writes0 := counted.reads.Load(), counted.writes.Load()
	gc0 := numGC()
	ph, err := driveTCP(st, e.seed, e.measure/2, nil)
	if err != nil {
		return err
	}
	reqs := float64(len(ph.warm) + len(ph.recs))
	hits, misses := float64(obs.ServeCacheHits.Value()-hits0), float64(obs.ServeCacheMisses.Value()-miss0)
	r.set("predcache.hit_ratio", hits/max(1, hits+misses))
	r.set("predcache.evictions", float64(obs.ServeCacheEvictions.Value()-evict0))
	r.set("coalesce.batch_size_mean", (obs.ServeCoalesceBatchSize.Snapshot().Sum-bsize0)/max(1, float64(obs.ServeCoalesceBatches.Value()-batches0)))
	r.set("serve.reads_per_req", float64(counted.reads.Load()-reads0)/reqs)
	r.set("serve.writes_per_req", float64(counted.writes.Load()-writes0)/reqs)
	r.set("runtime.gc_cycles", float64(numGC()-gc0))
	// Cardinalities are fixed-width on the wire, so a fresh frame is as
	// long as the corpus frame it was made from.
	bytes := 0
	for _, rec := range ph.recs {
		bytes += len(st.frames[rec.tmpl])
	}
	r.set("wire.frame_bytes", float64(bytes)/float64(max(1, len(ph.recs))))
	r.set("serve.repeat_share", verifyServe(r, st, ph.warm, ph.recs))

	// Replays, each on a fresh cache and coalescer warmed with the corpus.
	plain, err := replayServe(r, st, e.seed, e.measure/4, false)
	if err != nil {
		return err
	}
	tracedRun, err := replayServe(r, st, e.seed, e.measure/4, true)
	if err != nil {
		return err
	}
	ts := append(tracedRun.tracers, tracedRun.dispatch)
	lt := selfTimes(ts...)
	n := tracedRun.requests
	r.set("wire.decode_ns", perOp(lt, "wire.decode", n))
	r.set("wire.plankey_ns", perOp(lt, "wire.plankey", n))
	r.set("predcache.get_ns", perOp(lt, "predcache.get", n))
	if put := lt["predcache.put"]; put != nil {
		r.set("predcache.put_ns", perOp(lt, "predcache.put", put.count))
	}
	if co, d := lt["coalesce.predict"], lt["coalesce.dispatch"]; co != nil && d != nil {
		r.set("coalesce.wait_us", float64(co.total-tracedRun.dispatchPerReq)/float64(co.count)/1e3)
		r.set("coalesce.dispatch_us", float64(d.total)/float64(d.count)/1e3)
	}
	r.set("serve.net_residual_us", percentileUs(ph.rtt, 0.5)-percentileUs(plain.times, 0.5))
	// Misses wait on the coalescer's timer, so means are dominated by its
	// lateness; the overhead compares median request times instead.
	var tracedTimes []time.Duration
	for _, t := range tracedRun.tracers {
		for _, s := range t.spans {
			if s.parent < 0 {
				tracedTimes = append(tracedTimes, time.Duration(s.end-s.start))
			}
		}
	}
	slices.Sort(tracedTimes)
	r.set("trace.overhead_ns", 1e3*(percentileUs(tracedTimes, 0.5)-percentileUs(plain.times, 0.5)))
	r.set("trace.spans", float64(spanCount(ts...)))
	return finishTrace(e, r, "serve", ts...)
}

// replayResult is one replay pass.
type replayResult struct {
	requests       int
	times          []time.Duration // sorted request times (untraced pass)
	tracers        []*tracer       // one per goroutine (traced pass)
	dispatch       *tracer         // dispatch spans, shared under a lock
	dispatchPerReq time.Duration   // sum over dispatches of duration x batch size
}

// replayServe serves the callers' request streams in process, through the
// layers of the server's request path, from one goroutine per caller.
func replayServe(r *report, st *serveState, seed int64, d time.Duration, traced bool) (*replayResult, error) {
	res := &replayResult{}
	epoch := time.Now()
	var mu sync.Mutex
	if traced {
		res.dispatch = newTracer(epoch)
	}
	cache := predcache.New(serve.DefaultCacheEntries)
	batcher := coalesce.New(func(roots []*plan.Node, out []time.Duration) {
		t0 := time.Now()
		st.m.PredictBatchInto(roots, plan.TrueCards, out)
		t1 := time.Now()
		if traced {
			mu.Lock()
			res.dispatch.add("coalesce.dispatch", -1, -1, t0, t1)
			res.dispatchPerReq += t1.Sub(t0) * time.Duration(len(roots))
			mu.Unlock()
		}
	}, 0, 0)
	var dec wire.Decoder
	for i, f := range st.frames {
		v, err := serveFrame(nil, int64(i), f, &dec, cache, batcher)
		if err != nil {
			return nil, err
		}
		r.check(v == st.c.refs[i].Nanoseconds())
	}

	recs := make([]chunked[reqRecord], serveCallers)
	lat := make([]samples, serveCallers)
	errs := make([]error, serveCallers)
	tracers := make([]*tracer, serveCallers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range recs {
		if traced {
			tracers[i] = newTracer(epoch)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newStream(seed, i, st.frames)
			var dec wire.Decoder
			tr := tracers[i]
			for req := int64(0); time.Since(start) < d && !tr.full(); req++ {
				frame, tmpl, factor, err := s.next()
				if err != nil {
					errs[i] = err
					return
				}
				t0 := time.Now()
				v, err := serveFrame(tr, req, frame, &dec, cache, batcher)
				if !traced {
					lat[i].add(time.Since(t0))
				}
				if err != nil {
					errs[i] = err
					return
				}
				recs[i].add(reqRecord{at: t0.Sub(start), factor: factor, resp: v, tmpl: tmpl})
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var all []reqRecord
	for i := range recs {
		all = append(all, recs[i].drain()...)
		res.times = append(res.times, lat[i].drain()...)
	}
	slices.SortFunc(all, func(a, b reqRecord) int { return int(a.at - b.at) })
	verifyServe(r, st, nil, all)
	slices.Sort(res.times)
	res.requests = len(all)
	res.tracers = tracers
	return res, nil
}

// serveFrame is the server's request path for one frame, with a span
// around each layer call.
func serveFrame(tr *tracer, req int64, frame []byte, dec *wire.Decoder, cache *predcache.Cache, b *coalesce.Batcher) (int64, error) {
	root := tr.begin("serve.request", req, -1)
	sp := tr.begin("wire.parse_header", req, root)
	mode, n, err := wire.ParseHeader(frame)
	tr.end(sp)
	if err != nil || mode != plan.TrueCards || wire.HeaderSize+n > len(frame) {
		return 0, fmt.Errorf("replaying a frame: bad header (%v)", err)
	}
	sp = tr.begin("wire.decode", req, root)
	p, err := dec.Decode(frame[wire.HeaderSize : wire.HeaderSize+n])
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("replaying a frame: %w", err)
	}
	sp = tr.begin("wire.plankey", req, root)
	key := predcache.Key(wire.PlanKey(p, mode))
	tr.end(sp)
	sp = tr.begin("predcache.get", req, root)
	v, ok := cache.Get(key)
	tr.end(sp)
	if !ok {
		sp = tr.begin("coalesce.predict", req, root)
		v = b.Predict(p)
		tr.end(sp)
		sp = tr.begin("predcache.put", req, root)
		cache.Put(key, v)
		tr.end(sp)
	}
	tr.end(root)
	return v.Nanoseconds(), nil
}
