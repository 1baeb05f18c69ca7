package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"ctcomm/internal/calibrate"
	"ctcomm/internal/query"
	"ctcomm/internal/sweep"
)

// Workload generators. Every input is a pure function of the seed: the
// program under test receives only the generated request bodies.

// pointReq is one generated point query of the point_mix workload.
type pointReq struct {
	Kind  string // eval, price, plan, collective or fit
	Path  string // endpoint, e.g. /v1/eval
	Body  []byte // JSON body as sent
	FP    string // canonical fingerprint (the cache key)
	First int    // index of the first request with this fingerprint

	eval       *query.EvalRequest
	price      *query.PriceRequest
	plan       *query.PlanRequest
	collective *query.CollectiveRequest
	fit        *query.FitRequest
}

// cold reports whether i is the first request of its fingerprint.
func (p pointReq) cold(i int) bool { return p.First == i }

// query evaluates the request in-process through the query core.
func (p pointReq) query() (interface{}, error) {
	switch {
	case p.eval != nil:
		return query.Eval(*p.eval)
	case p.price != nil:
		return query.Price(*p.price)
	case p.plan != nil:
		return query.Plan(*p.plan)
	case p.collective != nil:
		return query.Collective(*p.collective)
	case p.fit != nil:
		return query.Fit(*p.fit)
	}
	return nil, fmt.Errorf("empty request")
}

// answer is the query core's answer rendered exactly as ctserved's
// handlers render it.
func (p pointReq) answer() ([]byte, error) {
	v, err := p.query()
	if err != nil {
		return nil, err
	}
	return renderJSON(v), nil
}

// renderJSON encodes v the way ctserved writes a response body.
func renderJSON(v interface{}) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // response structs always encode
	return buf.Bytes()
}

// Point-mix parameters. The client sends one request at a time on one
// connection (closed loop), so a latency is the fleet's own time for
// that request: an open-loop sender at a few hundred requests per
// second left the process idle between arrivals, and on a shared
// 2-vCPU host the wake-up from idle then made up about two thirds of a
// cache hit's latency and moved it by half from one run of the same
// seed to the next. A third of the requests repeat an earlier
// fingerprint, not a half: with half, the median of all requests falls
// in the gap between the hits and the cold requests and jumps across
// it from run to run.
const (
	pointRepeatProb = 0.3  // share of requests repeating an earlier fingerprint
	pointPoolMax    = 2048 // latest fresh fingerprints a repeat may draw from; under one replica's 4096-entry cache
	pointZipfS      = 1.1
	pointMaxRate    = 3000 // requests drawn per second of run, over twice what the fleet answers
)

// patterns are the x and y access patterns of every generated operation.
var patterns = []string{"1", "2", "8", "64", "w"}

var styles = []string{"buffer-packing", "chained", "direct", "pvm"}

// lawPatterns are the strided patterns: sweeps leave out the indexed
// pattern "w", whose transfers admit no word-count law and would make
// every sweep engine-bound.
var lawPatterns = patterns[:4]

// lawOps draws n distinct operations over lawPatterns, in canonical
// order. Every grid includes the contiguous copy 1Q1, the paper's
// baseline shape, so a sweep's first cell is always the same shape.
func lawOps(r *rand.Rand, n int) []string {
	chosen := map[string]bool{"1Q1": true}
	for len(chosen) < n {
		chosen[pick(r, lawPatterns)+"Q"+pick(r, lawPatterns)] = true
	}
	var ops []string
	for _, x := range lawPatterns {
		for _, y := range lawPatterns {
			if chosen[x+"Q"+y] {
				ops = append(ops, x+"Q"+y)
			}
		}
	}
	return ops
}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

// logWords draws a word count log-uniformly from [2^lo, 2^hi].
func logWords(r *rand.Rand, lo, hi float64) int {
	return int(math.Round(math.Exp2(lo + (hi-lo)*r.Float64())))
}

// genPointMix draws the first n requests of the point_mix workload.
// About a third repeat an earlier fingerprint, chosen Zipf-like from
// the pointPoolMax latest fresh ones, the latest the most popular: no
// more fresh answers than that are cached after a repeat's first
// answer, so every repeat is resident in the fleet's result caches
// and is a hit. A prefix of a longer draw is the shorter draw.
func genPointMix(seed int64, n int) []pointReq {
	r := rand.New(rand.NewSource(seed))
	var out []pointReq
	first := map[string]int{} // fingerprint -> index of its first request
	var pool []int            // indices of cold requests
	var deck []string         // kinds still to draw from the current deck
	for len(out) < n {
		if len(pool) > 0 && r.Float64() < pointRepeatProb {
			k := int(rand.NewZipf(r, pointZipfS, 1, uint64(len(pool)-1)).Uint64())
			out = append(out, out[pool[len(pool)-1-k]])
			continue
		}
		if len(deck) == 0 {
			deck = append(deck, pointDeck...)
			r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		kind := deck[0]
		deck = deck[1:]
		p := drawPoint(r, kind)
		for tries := 0; tries < 64; tries++ {
			if _, dup := first[p.FP]; !dup {
				break
			}
			p = drawPoint(r, kind)
		}
		if i, dup := first[p.FP]; dup {
			p = out[i] // the kind's inputs are used up: send a repeat
		} else {
			first[p.FP], p.First = len(out), len(out)
			if pool = append(pool, len(out)); len(pool) > pointPoolMax {
				pool = pool[1:]
			}
		}
		out = append(out, p)
	}
	return out
}

// pointDeck is the mix of fresh point queries: the generator deals
// kinds from shuffled copies of it, so every run sends the same
// proportions (30% eval, 30% price, 8% plan of which a quarter are
// transposes, 22% collective, 10% fit) and only the details vary. The
// weights are chosen, not taken from recorded traffic. Transposes are
// kept to 1 in 50 because one costs about 17 ms cold, some 75 times a
// cold eval, so that share already makes them about 30% of the cold
// evaluation time; more would turn the mix into a transpose benchmark.
var pointDeck = func() []string {
	var d []string
	for _, k := range []struct {
		kind string
		n    int
	}{{"eval", 15}, {"price", 15}, {"transpose", 1}, {"redistribution", 3}, {"collective", 11}, {"fit", 5}} {
		for i := 0; i < k.n; i++ {
			d = append(d, k.kind)
		}
	}
	return d
}()

// drawPoint draws one fresh point query of the given kind.
func drawPoint(r *rand.Rand, kind string) pointReq {
	op := func() string { return pick(r, patterns) + "Q" + pick(r, patterns) }
	// congestion is 0 (the machine default) or 1 to 12 in steps of
	// 1/16, so a long run does not use up the distinct evaluations.
	congestion := func() float64 {
		if r.Intn(8) == 0 {
			return 0
		}
		return 1 + float64(r.Intn(177))/16
	}
	var p pointReq
	switch kind {
	case "eval":
		q := query.EvalRequest{Op: op(), Congestion: congestion()}
		if r.Intn(2) == 0 {
			q.Machine, q.Rates = pick(r, []string{"t3d", "paragon"}), pick(r, []string{"paper", "calibrated"})
		} else {
			q.Machine, q.Rates = pick(r, []string{"cluster", "xe6"}), "calibrated"
			q.Level = pick(r, []string{"", "intra-socket", "inter-socket", "inter-node"})
		}
		p = pointReq{Kind: "eval", eval: &q, FP: q.Fingerprint()}
	case "price":
		q := query.PriceRequest{
			Machine: pick(r, []string{"t3d", "paragon"}), Style: pick(r, styles),
			X: pick(r, patterns), Y: pick(r, patterns),
			Words: logWords(r, 12, 18), Duplex: r.Intn(4) == 0,
		}
		p = pointReq{Kind: "price", price: &q, FP: q.Fingerprint()}
	case "transpose":
		q := query.PlanRequest{Machine: pick(r, []string{"t3d", "paragon"}), P: pick(r, []int{2, 4, 8, 16, 32, 64})}
		q.Transpose = q.P * (256/q.P + r.Intn(256/q.P+1)) // 256..512
		p = pointReq{Kind: "plan", plan: &q, FP: q.Fingerprint()}
	case "redistribution":
		q := query.PlanRequest{Machine: pick(r, []string{"t3d", "paragon"}), P: pick(r, []int{8, 16, 32, 64})}
		q.N = q.P * 64 * (1 + r.Intn(16))
		dists := []string{"BLOCK", "CYCLIC", "CYCLIC(2)", "CYCLIC(4)", "CYCLIC(8)", "CYCLIC(16)"}
		q.Src, q.Dst = pick(r, dists), pick(r, dists)
		p = pointReq{Kind: "plan", plan: &q, FP: q.Fingerprint()}
	case "collective":
		q := query.CollectiveRequest{
			Machine:    pick(r, []string{"t3d", "paragon", "cluster", "xe6"}),
			Collective: pick(r, []string{"all-to-all", "broadcast", "shift", "reduce"}),
			Words:      logWords(r, 6, 12),
		}
		if q.Collective == "all-to-all" {
			q.Nodes = 2 + r.Intn(15)
		} else {
			q.Nodes = 2 + r.Intn(63)
		}
		p = pointReq{Kind: "collective", collective: &q, FP: q.Fingerprint()}
	case "fit":
		q := query.FitRequest{Base: pick(r, []string{"t3d", "paragon", "cluster", "xe6"})}
		base, _ := query.ResolveMachine(q.Base) // built-in names always resolve
		q.Rows = calibrate.Synthesize(base, nil)
		for i := range q.Rows {
			// A measurement run never reproduces the model exactly.
			q.Rows[i].RateMBps *= 1 + 0.01*(2*r.Float64()-1)
		}
		p = pointReq{Kind: "fit", fit: &q, FP: q.Fingerprint()}
	}
	p.Path = "/v1/" + p.Kind
	var err error
	switch {
	case p.eval != nil:
		p.Body, err = json.Marshal(p.eval)
	case p.price != nil:
		p.Body, err = json.Marshal(p.price)
	case p.plan != nil:
		p.Body, err = json.Marshal(p.plan)
	case p.collective != nil:
		p.Body, err = json.Marshal(p.collective)
	default:
		p.Body, err = json.Marshal(p.fit)
	}
	if err != nil {
		panic(err) // plain request structs always encode
	}
	return p
}

// sweepReq is one generated sweep of a sweep workload.
type sweepReq struct {
	Spec   sweep.Spec
	Body   []byte
	Cells  int  // expanded grid size
	Repeat bool // a re-POST of an earlier sweep in the same block
}

// sweepBlock draws block k of a sweep workload. A run sends whole
// blocks, so every run measures the same mix of sweep classes whatever
// its length; a block's contents depend only on (seed, k). Within a
// block the classes are counted so that the medians of a run's
// latencies fall inside one class, well clear of its edges, rather
// than between two: on sweep_price the 6144-cell grids hold the middle
// of all sweeps (2 hits and 1 shapes grid below them, 2 larger grids
// above) and of the cold ones; on sweep_collective the 16-node grids
// do. Repeats re-POST a grid of the block while it is still cached.
func sweepBlock(workload string, seed int64, k int) []sweepReq {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
	var specs []sweepReq
	add := func(s sweep.Spec) { specs = append(specs, newSweepReq(s)) }
	repeat := func(i, n int) {
		for ; n > 0; n-- {
			rep := specs[i]
			rep.Repeat = true
			specs = append(specs, rep)
		}
	}
	switch workload {
	case "sweep_price":
		add(priceShapes(r))
		repeat(0, 2)
		for i := 0; i < 3; i++ {
			add(priceWords(r, 6144))
		}
		add(priceWords(r, 16384))
		add(priceWords(r, 16384))
		add(priceWords(r, sweep.HardMaxCells))
	case "sweep_collective":
		add(collFull(r))
		add(collParagon(r))
		add(collWide(r))
		for i := 0; i < 8; i++ {
			add(collGrid(r))
		}
		last := len(specs) - 1
		repeat(last-1, 2)
		repeat(last, 2)
	default:
		panic("unknown sweep workload " + workload)
	}
	return specs
}

func newSweepReq(s sweep.Spec) sweepReq {
	cells, err := sweep.Expand(s)
	if err != nil {
		panic(fmt.Sprintf("generated spec does not expand: %v", err))
	}
	body, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return sweepReq{Spec: s, Body: body, Cells: len(cells)}
}

// distinctInts draws n distinct values from draw.
func distinctInts(r *rand.Rand, n int, draw func() int) []int {
	seen := map[int]bool{}
	var out []int
	for len(out) < n {
		if v := draw(); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// priceShapes is a grid of many transfer shapes and few, scattered word
// counts: nearly every (shape, residue) needs its own law fit, so it is
// bound by xfer.Law fitting. 2 machines x 4 styles x 12 ops x 2
// congestions x 3 words = 576 cells.
func priceShapes(r *rand.Rand) sweep.Spec {
	return sweep.Spec{
		Kind: "price", Machines: []string{"t3d", "paragon"}, Styles: styles, Ops: lawOps(r, 12),
		Congestions: []float64{0, float64(2 + r.Intn(6))},
		Words:       distinctInts(r, 3, func() int { return logWords(r, 12, 18) }),
	}
}

// priceWords is a grid of few shapes and a dense words axis, about
// cells large: word counts share residues, so after a handful of fits
// nearly every cell is a law hit and the grid is bound by law
// evaluation, NDJSON rendering and the router's merge. Past ~27k cells
// a replica's /v1/cells shard exceeds ctserved's 1 MiB body cap, so the
// grid of sweep.HardMaxCells cells in every block comes back as error
// rows: a known defect, counted as failed rows.
func priceWords(r *rand.Rand, cells int) sweep.Spec {
	// 2 machines x 4 styles x 3 ops x 2 congestions = 48 shapes.
	n := cells / 48
	step := 1024 * (1 + r.Intn(4))
	start := 4096 * (4 + r.Intn(4))
	words := make([]int, n)
	for i := range words {
		words[i] = start + i*step
	}
	return sweep.Spec{
		Kind: "price", Machines: []string{"t3d", "paragon"}, Styles: styles, Ops: lawOps(r, 3),
		Congestions: []float64{0, float64(2 + r.Intn(6))}, Words: words,
		MaxCells: sweep.HardMaxCells,
	}
}

// denseWords is an evenly spaced words axis (one residue class) that
// starts at 4096 words plus up to spread, 4096 being the longest
// structural period a collective words law admits, so every cell is
// law-covered where a law exists.
func denseWords(r *rand.Rand, n, step, spread int) []int {
	base := 4096 + r.Intn(spread)
	words := make([]int, n)
	for i := range words {
		words[i] = base + i*step
	}
	return words
}

// collFull is broadcast, shift and reduce across the full width of
// every machine, 64 nodes. 3 x 3 x 6 = 54 cells.
func collFull(r *rand.Rand) sweep.Spec {
	return sweep.Spec{
		Kind: "collective", Machines: []string{"t3d", "paragon", "xe6"},
		Collectives: []string{"broadcast", "shift", "reduce"},
		NodeCounts:  []int{64},
		Words:       denseWords(r, 6, 1024, 4096),
	}
}

// collWide compares all-to-all strategies across the full width of
// every machine, 64 nodes, at two word counts: the heaviest law probes,
// thousands of concurrent flows through the event engine, and on the
// Paragon, whose congested all-to-all the law rejects, an engine
// evaluation for every cell. 3 x 1 x 1 x 2 = 6 cells. The engine's
// cost grows with the word count and this grid is some 40% of a
// block's time, so its words start within 256 of 4096: a wider draw
// made the cost of a run depend on its seed.
func collWide(r *rand.Rand) sweep.Spec {
	return sweep.Spec{
		Kind: "collective", Machines: []string{"t3d", "paragon", "xe6"},
		Collectives: []string{"all-to-all"},
		NodeCounts:  []int{64},
		Words:       denseWords(r, 2, 1024, 256),
	}
}

// collGrid compares strategies for all four collectives on all three
// machines over node counts up to 16, powers of two and not, and a
// dense words axis: all-to-all law fits drive the event engine, and
// most cells are law hits. The largest node count comes first, so a
// grid's first row waits on a law fit rather than on whichever
// goroutine the scheduler runs next. 3 x 4 x 4 x 8 = 384 cells.
func collGrid(r *rand.Rand) sweep.Spec {
	return sweep.Spec{
		Kind: "collective", Machines: []string{"t3d", "paragon", "xe6"},
		Collectives: []string{"all-to-all", "broadcast", "shift", "reduce"},
		NodeCounts:  []int{16, 11, 6, 3},
		Words:       denseWords(r, 8, 1024, 4096),
	}
}

// collParagon includes the Paragon's congested pairwise all-to-all at
// 20 and 24 nodes, which the words law rejects (non-affine), so those
// cells fall back to the evaluator. 4 x 2 x 6 = 48 cells.
func collParagon(r *rand.Rand) sweep.Spec {
	return sweep.Spec{
		Kind: "collective", Machines: []string{"paragon"},
		Collectives: []string{"all-to-all", "broadcast", "shift", "reduce"},
		NodeCounts:  []int{24, 20},
		Words:       denseWords(r, 6, 256, 4096),
	}
}
