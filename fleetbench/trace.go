package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ctcomm/internal/calibrate"
	"ctcomm/internal/collective"
	"ctcomm/internal/comm"
	"ctcomm/internal/machine"
	"ctcomm/internal/pattern"
	"ctcomm/internal/query"
	"ctcomm/internal/sim"
	"ctcomm/internal/sweep"
	"ctcomm/internal/xfer"
)

// The traced run. Spans are recorded here, in the benchmark, around
// the calls into each layer's public entry points; nothing inside the
// program is instrumented. Each layer is replayed on the same inputs,
// one request at a time and on fresh state, so its time can be set
// against the layer below: a layer's self time is its level's time
// minus the next level's.

// span is one timed call into a layer for one input.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // the same input's span one level up
	Input  int    `json:"input"`            // request or sweep index
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// last maps (input, layer) to the input's most recent span id, for
	// parent links.
	last map[string]int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), last: map[string]int64{}} }

// do times fn as a span of layer for input, parented on the input's
// span at parentLayer ("" for none), and returns its duration.
func (t *tracer) do(input int, layer, parentLayer string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	s := span{ID: id, Input: input, Layer: layer,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	if parentLayer != "" {
		s.Parent = t.last[fmt.Sprint(input, "/", parentLayer)]
	}
	t.spans = append(t.spans, s)
	t.last[fmt.Sprint(input, "/", layer)] = id
	return end.Sub(start)
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// layerMetricsList names every per-layer metric with its unit and the
// direction that is better. Every traced run reports all of them; a
// layer a workload never reaches reports 0.
var layerMetricsList = []struct{ name, unit, better string }{
	{"router.self_us_p50", "us", "lower"},
	{"router.proxied", "count", "lower"},
	{"router.shard_hops", "count", "lower"},
	{"router.failovers", "count", "lower"},
	{"router.merge_us_per_row", "us", "lower"},
	{"serve.self_us_p50", "us", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.collapsed", "count", "higher"},
	{"serve.rejected", "count", "lower"},
	{"serve.cells_us_per_row", "us", "lower"},
	{"sweep.self_us_per_row", "us", "lower"},
	{"sweep.analytic_ratio", "ratio", "higher"},
	{"sweep.cached_ratio", "ratio", "higher"},
	{"sweep.failed", "count", "lower"},
	{"query.eval_us_p50", "us", "lower"},
	{"query.price_us_p50", "us", "lower"},
	{"query.plan_ms_p50", "ms", "lower"},
	{"query.collective_ms_p50", "ms", "lower"},
	{"query.collective_ms_p99", "ms", "lower"},
	{"query.fit_us_p50", "us", "lower"},
	{"query.batch_us_per_cell", "us", "lower"},
	{"xfer.law_fits", "count", "lower"},
	{"xfer.law_admitted_ratio", "ratio", "higher"},
	{"xfer.fit_ms_total", "ms", "lower"},
	{"xfer.law_eval_ns", "ns", "lower"},
	{"collective.fit_ms_total", "ms", "lower"},
	{"collective.hit_us_p50", "us", "lower"},
	{"collective.law_admitted_ratio", "ratio", "higher"},
	{"collective.engine_ms_total", "ms", "lower"},
	{"comm.run_us_p50", "us", "lower"},
	{"calibrate.measure_ms", "ms", "lower"},
	{"calibrate.hits", "count", "higher"},
	{"calibrate.misses", "count", "lower"},
	{"memsim.accesses", "count", "lower"},
	{"memsim.ns_per_access", "ns", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// newLayerMetrics returns every per-layer metric at 0.
func newLayerMetrics() metrics {
	m := metrics{}
	for _, x := range layerMetricsList {
		m.set(x.name, x.unit, 0, "")
	}
	return m
}

// put sets a per-layer metric, keeping its unit.
func (m metrics) put(name string, v float64, note string) {
	x, ok := m[name]
	if !ok {
		panic("unknown per-layer metric " + name)
	}
	x.Value, x.note = v, note
	m[name] = x
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// breakdown is the traced run's split of the replayed total into layer
// self times, nested as the layers call one another.
type breakdown struct {
	title    string
	total    time.Duration // the top level's traced time
	untraced time.Duration // the same replay with no spans recorded
	rows     []bdRow
}

type bdRow struct {
	depth int
	name  string
	self  time.Duration
	note  string
}

func (b *breakdown) add(depth int, name string, self time.Duration, note string) {
	b.rows = append(b.rows, bdRow{depth, name, self, note})
}

// print writes the breakdown as a call tree: each layer's self time,
// its share of the traced total, and the total's error against the
// untraced replay.
func (b *breakdown) print(w *bufio.Writer) {
	fmt.Fprintf(w, "\n## Breakdown: %s\n\n", b.title)
	fmt.Fprintf(w, "Total: %.1f ms traced (untraced replay: %.1f ms, error: %+.1f%%)\n\n",
		ms(b.total), ms(b.untraced), b.overhead())
	for i, r := range b.rows {
		prefix := ""
		for d := 0; d <= r.depth; d++ {
			// A later row at depth d before any shallower one means the
			// branch at depth d continues past this row.
			more := false
			for _, later := range b.rows[i+1:] {
				if later.depth < d {
					break
				}
				if later.depth == d {
					more = true
					break
				}
			}
			switch {
			case d < r.depth && more:
				prefix += "│  "
			case d < r.depth:
				prefix += "   "
			case more:
				prefix += "├─ "
			default:
				prefix += "└─ "
			}
		}
		fmt.Fprintf(w, "%s%-*s %10.1f ms (%5.1f%%)  %s\n", prefix, 18-3*r.depth, r.name+":", ms(r.self),
			100*float64(r.self)/float64(b.total), r.note)
	}
	fmt.Fprintf(w, "\nTracing overhead: %+.1f ms (%+.1f%%), traced minus untraced replay\n",
		ms(b.total-b.untraced), b.overhead())
	fmt.Fprintf(w, "(A self time is one level's time minus the next level's; below zero, the layer costs\nless than the run-to-run noise of the level under it.)\n\n")
}

func (b *breakdown) overhead() float64 {
	return 100 * (float64(b.total) - float64(b.untraced)) / float64(b.untraced)
}

// observed resolves machines by name, each observing one sim.Stats, so
// a pass counts the simulator work (memory accesses, engine events) it
// causes. One pointer per name keeps pointer-keyed sessions shared.
type observed struct {
	st    sim.Stats
	machs map[string]*machine.Machine
}

func newObserved() *observed { return &observed{machs: map[string]*machine.Machine{}} }

func (o *observed) get(name string) *machine.Machine {
	m, ok := o.machs[name]
	if !ok {
		var err error
		if m, err = query.ResolveMachine(name); err != nil {
			panic(err) // generated requests name built-in machines
		}
		m.Observe(&o.st)
		o.machs[name] = m
	}
	return m
}

// timedSource times every basic transfer the comm assembler obtains
// from inner and records what was asked.
type timedSource struct {
	inner comm.Source
	m     string
	busy  *time.Duration
	asked *[]xferKey
}

type xferKey struct {
	m     string
	kind  xfer.Kind
	x, y  pattern.Spec
	words int
}

func (s timedSource) Transfer(kind xfer.Kind, x, y pattern.Spec, words int) (xfer.Result, bool, error) {
	start := time.Now()
	r, analytic, err := s.inner.Transfer(kind, x, y, words)
	*s.busy += time.Since(start)
	*s.asked = append(*s.asked, xferKey{s.m, kind, x, y, words})
	return r, analytic, err
}

// commPass prices requests through comm.RunWith on observed machines:
// through a comm.Session when session is set (the sweep path), else
// simulating every transfer (the point path). It keeps comm's time per
// request, the time spent inside basic transfers, and what was asked.
type commPass struct {
	obs     *observed
	session *comm.Session
	busy    time.Duration // inside transfers
	asked   []xferKey
	runs    []float64 // us per request
}

func (p *commPass) run(q query.PriceRequest) {
	q = q.Canon()
	style, err1 := comm.ParseStyle(q.Style)
	x, err2 := pattern.ParseSpec(q.X)
	y, err3 := pattern.ParseSpec(q.Y)
	if err1 != nil || err2 != nil || err3 != nil {
		return // the query core rejects it before comm
	}
	m := p.obs.get(q.Machine)
	var src comm.Source = comm.EngineSource(m)
	if p.session != nil {
		src = p.session.SourceFor(m)
	}
	src = timedSource{inner: src, m: q.Machine, busy: &p.busy, asked: &p.asked}
	start := time.Now()
	_, _ = comm.RunWith(m, style, x, y, comm.Options{Words: q.Words, Congestion: q.Congestion, Duplex: q.Duplex}, src)
	p.runs = append(p.runs, us(time.Since(start)))
}

// xferPass replays, through xfer.PeriodOf, xfer.FitLaw and Law.Eval,
// the law fits and law evaluations a comm.Session makes for the
// transfers it was asked: one fit per (machine, kind, shape, residue)
// family and session, and the covered transfers' evaluations, repeated
// lawEvalReps times to time them. Call run once per session.
type xferPass struct {
	fits, admitted int
	fitTime        time.Duration
	evalTime       time.Duration
	evals          int
	evalSink       float64
}

func (p *xferPass) run(asked []xferKey) {
	type family struct {
		m       string
		kind    xfer.Kind
		x, y    pattern.Spec
		residue int
	}
	machs := map[string]*machine.Machine{}
	laws := map[family]*xfer.Law{}
	seen := map[xferKey]bool{}
	type lawCall struct {
		law   *xfer.Law
		words int
	}
	var covered []lawCall
	for _, k := range asked {
		if seen[k] {
			continue
		}
		seen[k] = true
		mach, ok := machs[k.m]
		if !ok {
			mach, _ = query.ResolveMachine(k.m) // resolved before, by the comm pass
			machs[k.m] = mach
		}
		period := xfer.PeriodOf(mach, k.kind, k.x, k.y)
		if period == 0 {
			continue
		}
		f := family{k.m, k.kind, k.x, k.y, k.words % period}
		law, fitted := laws[f]
		if !fitted {
			start := time.Now()
			law = xfer.FitLaw(mach, k.kind, k.x, k.y, f.residue)
			p.fitTime += time.Since(start)
			p.fits++
			if law != nil {
				p.admitted++
			}
			laws[f] = law
		}
		if law != nil && law.Covers(k.words) {
			covered = append(covered, lawCall{law, k.words})
		}
	}
	// One evaluation costs about as much as a clock read, so the
	// covered evaluations are timed together, lawEvalReps times over.
	var sink float64 // keeps the calls from being optimised away
	start := time.Now()
	for rep := 0; rep < lawEvalReps; rep++ {
		for _, c := range covered {
			r, _ := c.law.Eval(c.words)
			sink += r.ElapsedNs
		}
	}
	p.evalTime += time.Since(start)
	p.evalSink += sink
	p.evals += lawEvalReps * len(covered)
}

// lawEvalReps is how many times xferPass repeats a session's covered
// law evaluations to time them.
const lawEvalReps = 16

func (p *xferPass) report(m metrics) {
	m.put("xfer.law_fits", float64(p.fits), "")
	if p.fits > 0 {
		m.put("xfer.law_admitted_ratio", float64(p.admitted)/float64(p.fits), fmt.Sprintf("%d of %d families", p.admitted, p.fits))
	}
	m.put("xfer.fit_ms_total", ms(p.fitTime), "")
	if p.evals > 0 {
		m.put("xfer.law_eval_ns", float64(p.evalTime.Nanoseconds())/float64(p.evals), fmt.Sprintf("mean of %d calls", p.evals))
	}
}

// collPass evaluates collective requests strategy by strategy on
// observed machines: through one collective.Session (the sweep path)
// or planning and evaluating each afresh (the point path).
type collPass struct {
	obs      *observed
	session  *collective.Session
	lawCalls []float64 // us per Session.Evaluate answered by a words law
	lawTotal time.Duration
	engine   time.Duration // evaluator-path time
	// families records, per (machine, collective, strategy, nodes),
	// whether a words law answered any of its evaluations.
	families map[collFamily]bool
}

type collFamily struct {
	m     string
	op    collective.Op
	st    collective.Strategy
	nodes int
}

func (p *collPass) run(q query.CollectiveRequest) {
	q = q.Canon()
	op, err := collective.ParseOp(q.Collective)
	if err != nil {
		return // the query core rejects it before collective
	}
	strategies := collective.Strategies()
	if q.Strategy != "" {
		st, err := collective.ParseStrategy(q.Strategy)
		if err != nil {
			return
		}
		strategies = []collective.Strategy{st}
	}
	m := p.obs.get(q.Machine)
	nodes := q.Nodes
	if nodes == 0 {
		nodes = m.Nodes()
	}
	for _, st := range strategies {
		start := time.Now()
		if p.session != nil {
			_, law, err := p.session.Evaluate(m, op, st, nodes, q.Offset, q.Words, q.Engine)
			d := time.Since(start)
			fam := collFamily{q.Machine, op, st, nodes}
			p.families[fam] = p.families[fam] || (law && err == nil)
			if law && err == nil {
				p.lawCalls = append(p.lawCalls, us(d))
				p.lawTotal += d
			} else {
				p.engine += d
			}
			continue
		}
		if plan, err := collective.New(op, st, nodes, q.Offset); err == nil {
			_, _ = plan.Evaluate(m, q.Words, q.Engine)
		}
		p.engine += time.Since(start)
	}
}

// report fills the collective and sim metrics.
func (p *collPass) report(m metrics) {
	m.put("collective.engine_ms_total", ms(p.engine), "")
	if p.session != nil {
		hit := median(p.lawCalls)
		fit := ms(p.lawTotal) - hit*float64(len(p.lawCalls))/1e3
		m.put("collective.hit_us_p50", hit, fmt.Sprintf("n=%d law-path calls", len(p.lawCalls)))
		m.put("collective.fit_ms_total", max(fit, 0), "law-path time beyond the median hit")
		admitted := 0
		for _, ok := range p.families {
			if ok {
				admitted++
			}
		}
		if len(p.families) > 0 {
			m.put("collective.law_admitted_ratio", float64(admitted)/float64(len(p.families)),
				fmt.Sprintf("%d of %d (machine, collective, strategy, nodes) families", admitted, len(p.families)))
		}
	}
	if ev := p.obs.st.Events(); ev > 0 {
		m.put("sim.events", float64(ev), "")
		m.put("sim.ns_per_event", float64(p.engine+p.lawTotal)/float64(ev), "collective time per engine event")
	}
}

// calibratePass times calibrate.Measure for every warm-up machine on
// a cold process-wide cache (the traced run measures it before
// anything else calibrates).
func calibratePass(m metrics) {
	var total time.Duration
	for _, name := range warmMachines {
		mach, _ := query.ResolveMachine(name)
		start := time.Now()
		calibrate.Measure(mach, 0)
		total += time.Since(start)
	}
	m.put("calibrate.measure_ms", ms(total), fmt.Sprintf("%d machines", len(warmMachines)))
}

// runtimeDelta records allocation figures over a phase.
type runtimeDelta struct{ before, after runtime.MemStats }

func startRuntime() *runtimeDelta {
	r := &runtimeDelta{}
	runtime.ReadMemStats(&r.before)
	return r
}

func (r *runtimeDelta) stop() { runtime.ReadMemStats(&r.after) }

// report divides the phase's allocations by its ops.
func (r *runtimeDelta) report(m metrics, ops int) {
	n := float64(max(ops, 1))
	m.put("runtime.alloc_bytes_per_op", float64(r.after.TotalAlloc-r.before.TotalAlloc)/n, "")
	m.put("runtime.allocs_per_op", float64(r.after.Mallocs-r.before.Mallocs)/n, "")
	m.put("runtime.gc_cpu_fraction", r.after.GCCPUFraction, "since process start")
}

// traceBlocks is how many blocks of a sweep workload a traced run
// replays: a fixed count, so its counts repeat exactly per seed. A
// sweep_collective block, with its 64-node all-to-all grid, costs
// several times a sweep_price block at every replayed level.
func traceBlocks(workload string) int {
	if workload == "sweep_collective" {
		return 2
	}
	return 3
}

// tracePointRate is how many point_mix requests a traced run replays
// per second of run length: a fixed count, so its counts repeat exactly
// per seed.
const tracePointRate = 125

// runTraced runs a shorter version of the workload's measured phase
// untraced (the runtime and counter figures and the answer check come
// from it): tracePointRate requests per second of run length on
// point_mix, or traceBlocks(workload) blocks of sweeps. It then replays
// the same inputs layer by layer with spans recorded and prints the
// breakdown.
func runTraced(out *bufio.Writer, workload string, seed int64, d time.Duration) (*result, error) {
	m := newLayerMetrics()
	calibratePass(m)
	tr := newTracer()
	var res *result
	var bd *breakdown
	var err error
	if workload == "point_mix" {
		res, bd, err = tracePoint(tr, m, seed, int(d.Seconds()*tracePointRate))
	} else {
		res, bd, err = traceSweeps(tr, m, workload, seed)
	}
	if err != nil {
		return nil, err
	}
	hits, misses := calibrate.CacheStats()
	m.put("calibrate.hits", float64(hits), "")
	m.put("calibrate.misses", float64(misses), "")
	m.put("trace.overhead_pct", bd.overhead(), "traced minus untraced replay")
	bd.print(out)
	path, err := tr.write(filepath.Join(".bench_build", "fleetbench"), fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# %d spans written to %s\n", len(tr.spans), path)
	res.m = m
	return res, nil
}

// levels are the three fleets a traced run replays each input through,
// back to back so that slow drifts of the host hit every level alike:
// the router untraced, the router traced, and each replica directly.
type levels struct {
	untraced, routed, direct *fleet
	cu, cr, cd               *http.Client
}

func setUpLevels() (*levels, error) {
	var l levels
	var err error
	if l.untraced, l.cu, _, err = setUp(); err != nil {
		return nil, err
	}
	if l.routed, l.cr, _, err = setUp(); err != nil {
		l.untraced.stop()
		return nil, err
	}
	if l.direct, l.cd, _, err = setUp(); err != nil {
		l.untraced.stop()
		l.routed.stop()
		return nil, err
	}
	return &l, nil
}

// counters records the traced router's counters and its replicas'
// result-cache hit ratio.
func (l *levels) counters(m metrics) {
	st := l.routed.rt.Snapshot()
	m.put("router.proxied", float64(st.Proxied), "")
	m.put("router.failovers", float64(st.Failovers), "")
	m.put("router.shard_hops", float64(st.ShardHops), "")
	hits, misses, _, _ := l.routed.counters()
	if hits+misses > 0 {
		m.put("serve.cache_hit_ratio", float64(hits)/float64(hits+misses), fmt.Sprintf("%d of %d lookups", hits, hits+misses))
	}
}

// alternate runs the untraced and the traced router call for input i,
// swapping their order on every other input so neither gains from
// going first.
func alternate(i int, untraced, traced func()) {
	if i%2 == 0 {
		untraced()
		traced()
		return
	}
	traced()
	untraced()
}

func (l *levels) stop() {
	for _, c := range []*http.Client{l.cu, l.cr, l.cd} {
		c.CloseIdleConnections()
	}
	l.untraced.stop()
	l.routed.stop()
	l.direct.stop()
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// tracePoint is the point_mix traced run over the first n requests.
func tracePoint(tr *tracer, m metrics, seed int64, n int) (*result, *breakdown, error) {
	reqs := genPointMix(seed, n)

	// The untraced closed-loop phase.
	f, c, _, err := setUp()
	if err != nil {
		return nil, nil, err
	}
	rt := startRuntime()
	rs, wall := runClosedLoop(c, f.base, reqs, func(time.Duration) bool { return true })
	rt.stop()
	_, _, collapsed, rejected := f.counters()
	m.put("serve.collapsed", float64(collapsed), "")
	m.put("serve.rejected", float64(rejected), "")
	c.CloseIdleConnections()
	f.stop()
	res := pointMetrics(metrics{}, reqs, rs, checkPoint(reqs, rs), wall, 0, 0)
	rt.report(m, res.attempted-res.failed)

	// The replay, one request at a time through every level. Below the
	// replica only a fingerprint's first request is replayed: repeats
	// are cache hits there and never reach the query core.
	l, err := setUpLevels()
	if err != nil {
		return nil, nil, err
	}
	untraced := make([]time.Duration, len(reqs))
	routed := make([]time.Duration, len(reqs))
	direct := make([]time.Duration, len(reqs))
	inQuery := make([]time.Duration, len(reqs))
	byKind := map[string][]float64{}
	cp := &commPass{obs: newObserved()}
	kp := &collPass{obs: newObserved()}
	var inComm, inColl time.Duration
	for i, p := range reqs {
		alternate(i, func() {
			start := time.Now()
			_, _, _, _ = post(l.cu, l.untraced.base+p.Path, p.Body)
			untraced[i] = time.Since(start)
		}, func() {
			routed[i] = tr.do(i, "router", "", func() { _, _, _, _ = post(l.cr, l.routed.base+p.Path, p.Body) })
		})
		direct[i] = tr.do(i, "serve", "router", func() { _, _, _, _ = post(l.cd, l.direct.home(p.FP)+p.Path, p.Body) })
		if !p.cold(i) {
			continue
		}
		inQuery[i] = tr.do(i, "query", "serve", func() { _, _ = p.query() })
		byKind[p.Kind] = append(byKind[p.Kind], us(inQuery[i]))
		switch {
		case p.price != nil:
			inComm += tr.do(i, "comm", "query", func() { cp.run(*p.price) })
		case p.collective != nil:
			inColl += tr.do(i, "collective", "query", func() { kp.run(*p.collective) })
		}
	}
	l.counters(m)
	l.stop()

	selfRouter := make([]float64, len(reqs))
	selfServe := make([]float64, len(reqs))
	for i := range reqs {
		selfRouter[i] = us(routed[i] - direct[i])
		selfServe[i] = us(direct[i] - inQuery[i])
	}
	m.put("router.self_us_p50", median(selfRouter), fmt.Sprintf("n=%d", len(reqs)))
	m.put("serve.self_us_p50", median(selfServe), fmt.Sprintf("n=%d", len(reqs)))
	m.put("query.eval_us_p50", median(byKind["eval"]), fmt.Sprintf("n=%d", len(byKind["eval"])))
	m.put("query.price_us_p50", median(byKind["price"]), fmt.Sprintf("n=%d", len(byKind["price"])))
	m.put("query.plan_ms_p50", median(byKind["plan"])/1e3, fmt.Sprintf("n=%d", len(byKind["plan"])))
	m.put("query.fit_us_p50", median(byKind["fit"]), fmt.Sprintf("n=%d", len(byKind["fit"])))
	coll := byKind["collective"]
	v, pct := tail(coll)
	m.put("query.collective_ms_p50", median(coll)/1e3, fmt.Sprintf("n=%d", len(coll)))
	m.put("query.collective_ms_p99", v/1e3, fmt.Sprintf("p%.1f of n=%d", pct, len(coll)))
	m.put("comm.run_us_p50", median(cp.runs), fmt.Sprintf("n=%d distinct price requests", len(cp.runs)))
	cp.report(m)
	kp.report(m)

	cold := 0
	for _, xs := range byKind {
		cold += len(xs)
	}
	b := &breakdown{
		title: fmt.Sprintf("point_mix, %d requests replayed one at a time", len(reqs)),
		total: sum(routed), untraced: sum(untraced),
	}
	b.add(0, "router", sum(routed)-sum(direct), "proxy to the home replica")
	b.add(1, "serve", sum(direct)-sum(inQuery), "HTTP, decode, cache, queue, render")
	b.add(2, "query", sum(inQuery)-inComm-inColl, fmt.Sprintf("%d cold requests; eval, plan and fit evaluate here", cold))
	b.add(3, "comm", inComm-cp.busy, "price: operation assembly")
	b.add(4, "xfer+memsim", cp.busy, "price: basic transfers")
	b.add(3, "collective+sim", inColl, "collective: plan and evaluate")
	return res, b, nil
}

// report fills the comm-side memsim metrics.
func (p *commPass) report(m metrics) {
	if a := p.obs.st.Accesses(); a > 0 {
		m.put("memsim.accesses", float64(a), "")
		m.put("memsim.ns_per_access", float64(p.busy)/float64(a), "basic-transfer time per simulated access")
	}
}

// drain posts body and discards the response, returning the status.
func drain(c *http.Client, url string, body []byte) int {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// traceSweeps is the traced run of a sweep workload. The fleet answers
// a sweep's shards in parallel, so each lower level is measured on the
// sweep's critical shard: the one its home replica took longest over.
func traceSweeps(tr *tracer, m metrics, workload string, seed int64) (*result, *breakdown, error) {
	// The untraced closed-loop phase; its sweeps are the replayed inputs.
	f, c, _, err := setUp()
	if err != nil {
		return nil, nil, err
	}
	rt := startRuntime()
	rs, wall := runSweeps(c, f.base, workload, seed, func(k int, _ time.Duration) bool { return k < traceBlocks(workload) })
	rt.stop()
	c.CloseIdleConnections()
	f.stop()
	res := sweepMetrics(metrics{}, rs, checkSweeps(rs), wall, 0, 0)
	rt.report(m, res.attempted-res.failed)

	// The replay, one sweep at a time through every level.
	l, err := setUpLevels()
	if err != nil {
		return nil, nil, err
	}
	untraced := make([]time.Duration, len(rs))
	routed := make([]time.Duration, len(rs))
	crit := make([]time.Duration, len(rs))
	inSweep := make([]time.Duration, len(rs))
	inBatch := make([]time.Duration, len(rs))
	rows, critRows := 0, 0
	cp := &commPass{obs: newObserved()}
	kp := &collPass{obs: newObserved(), families: map[collFamily]bool{}}
	xp := &xferPass{}
	var inComm, inColl time.Duration
	for i, r := range rs {
		q := r.req
		rows += q.Cells
		alternate(i, func() {
			start := time.Now()
			drain(l.cu, l.untraced.base+"/v1/sweep", q.Body)
			untraced[i] = time.Since(start)
		}, func() {
			routed[i] = tr.do(i, "router", "", func() { drain(l.cr, l.routed.base+"/v1/sweep", q.Body) })
		})

		// Each shard straight to its home replica's /v1/cells, one at a
		// time; the slowest is the critical shard.
		all, err := sweep.Expand(q.Spec)
		if err != nil {
			l.stop()
			return nil, nil, err
		}
		shards := map[string][]sweep.Cell{}
		for _, cell := range all {
			home := l.direct.rt.Home(cell.Fingerprint())
			shards[home] = append(shards[home], cell)
		}
		var critCells []sweep.Cell
		for _, name := range l.direct.names {
			if len(shards[name]) == 0 {
				continue
			}
			body, err := json.Marshal(sweep.CellsRequest{Cells: shards[name]})
			if err != nil {
				l.stop()
				return nil, nil, err
			}
			var code int
			dur := tr.do(i, "serve", "router", func() { code = drain(l.cd, l.direct.replicas[name]+"/v1/cells", body) })
			if dur > crit[i] {
				crit[i], critCells = dur, nil
				if code == http.StatusOK && !q.Repeat {
					// Cells the replica evaluated; a repeat's were
					// cache hits and never reached the sweep layer.
					critCells = shards[name]
				}
			}
		}
		if len(critCells) == 0 {
			continue
		}

		// In-process, on the critical shard: sweep.Run, then the cells
		// one by one through a query.Batch, then the layers under them,
		// each with a fresh session as each /v1/cells request gets.
		critRows += len(critCells)
		local := make([]sweep.Cell, len(critCells))
		var prices []query.PriceRequest
		var colls []query.CollectiveRequest
		for j, c := range critCells {
			c.Index = j
			local[j] = c
			switch {
			case c.Price != nil:
				prices = append(prices, *c.Price)
			case c.Collective != nil:
				colls = append(colls, *c.Collective)
			}
		}
		inSweep[i] = tr.do(i, "sweep", "serve", func() {
			_, _ = sweep.Run(context.Background(), local, sweep.Options{Workers: 1}, func(sweep.Row) error { return nil })
		})
		inBatch[i] = tr.do(i, "query", "sweep", func() {
			b := query.NewBatch()
			for _, c := range local {
				_, _, _ = c.ExecBatch(b)
			}
		})
		cp.session, cp.asked = comm.NewSession(), nil
		kp.session = collective.NewSession()
		// One span per sweep and layer: a span per cell would cost more
		// than the law hits it times.
		inComm += tr.do(i, "comm", "query", func() {
			for _, q := range prices {
				cp.run(q)
			}
		})
		inColl += tr.do(i, "collective", "query", func() {
			for _, q := range colls {
				kp.run(q)
			}
		})
		xp.run(cp.asked)
	}
	l.counters(m)
	var cells, cached, analytic, failed int64
	for _, s := range l.routed.servers {
		st := s.Snapshot().Sweep
		cells, cached, analytic, failed = cells+st.Cells, cached+st.Cached, analytic+st.Analytic, failed+st.Failed
	}
	if cells > 0 {
		m.put("sweep.analytic_ratio", float64(analytic)/float64(cells), fmt.Sprintf("of %d rows the replicas streamed", cells))
		m.put("sweep.cached_ratio", float64(cached)/float64(cells), "")
	}
	m.put("sweep.failed", float64(failed), "error rows streamed by replicas")
	l.stop()
	xp.report(m)
	cp.report(m)
	kp.report(m)

	selfRouter := make([]float64, len(rs))
	selfServe := make([]float64, len(rs))
	for i := range rs {
		selfRouter[i] = us(routed[i] - crit[i])
		selfServe[i] = us(crit[i] - inSweep[i])
	}
	perRow := func(d time.Duration, n int) float64 { return us(d) / float64(max(n, 1)) }
	m.put("router.self_us_p50", median(selfRouter), fmt.Sprintf("n=%d sweeps", len(rs)))
	m.put("router.merge_us_per_row", perRow(sum(routed)-sum(crit), rows), fmt.Sprintf("%d rows", rows))
	m.put("serve.self_us_p50", median(selfServe), fmt.Sprintf("n=%d sweeps", len(rs)))
	m.put("serve.cells_us_per_row", perRow(sum(crit)-sum(inSweep), critRows), fmt.Sprintf("%d critical-shard rows", critRows))
	m.put("sweep.self_us_per_row", perRow(sum(inSweep)-sum(inBatch), critRows), "")
	m.put("query.batch_us_per_cell", perRow(sum(inBatch), critRows), "")
	if len(cp.runs) > 0 {
		m.put("comm.run_us_p50", median(cp.runs), fmt.Sprintf("n=%d cells", len(cp.runs)))
	}

	b := &breakdown{
		title: fmt.Sprintf("%s, %d sweeps (%d rows) replayed one at a time; lower levels on each critical shard", workload, len(rs), rows),
		total: sum(routed), untraced: sum(untraced),
	}
	b.add(0, "router", sum(routed)-sum(crit), "expand, fan out, merge, render; shards contending in parallel")
	b.add(1, "serve", sum(crit)-sum(inSweep), "HTTP, decode /v1/cells, cache, queue, render")
	b.add(2, "sweep", sum(inSweep)-sum(inBatch), "sweep.Run: chunking, ordering")
	b.add(3, "query", sum(inBatch)-inComm-inColl, "query.Batch: machines, rate tables, responses")
	b.add(4, "comm", inComm-cp.busy, "comm.Session: assembly, memo")
	b.add(5, "xfer+memsim", cp.busy, "law fits, law hits, engine runs")
	b.add(4, "collective+sim", inColl, "collective.Session: plans, laws, engine")
	return res, b, nil
}
