package netsim

import (
	"container/heap"
	"math/rand"
	"testing"

	"ctcomm/internal/sim"
)

// refBatch is Batch as it ran on the closure-per-event engine over
// container/heap, kept verbatim as the reference the typed-agenda Batch
// must match event for event.
func refBatch(n *Network, at sim.Time, flows []Flow, mode Mode) (done []sim.Time, makespan sim.Time) {
	done = make([]sim.Time, len(flows))
	makespan = at

	type flowState struct {
		path      []*sim.Resource
		chunks    int64
		lastBytes int64
		perByte   float64
	}
	type arrival struct {
		flow, hop int
		chunk     int64
		t         sim.Time
	}

	states := make([]*flowState, len(flows))
	chunkBytes := int64(n.cfg.ChunkBytes)
	for i, f := range flows {
		wire := n.cfg.WireBytes(mode, f.Bytes)
		if f.Src == f.Dst || wire == 0 {
			done[i] = at
			continue
		}
		chunks := (wire + chunkBytes - 1) / chunkBytes
		states[i] = &flowState{
			path:      n.path(f.Src, f.Dst),
			chunks:    chunks,
			lastBytes: wire - (chunks-1)*chunkBytes,
			perByte:   n.nsPerByteFor(f.Src, f.Dst),
		}
	}
	durOf := func(st *flowState, chunk int64) sim.Time {
		bytes := chunkBytes
		if chunk == st.chunks-1 {
			bytes = st.lastBytes
		}
		d := sim.Time(float64(bytes)*st.perByte + 0.5)
		if d < 1 {
			d = 1
		}
		return d
	}

	eng := &refEngine{}
	var deliver func(a arrival)
	deliver = func(a arrival) {
		st := states[a.flow]
		_, end := st.path[a.hop].Claim(a.t, durOf(st, a.chunk))
		if a.hop == 0 && a.chunk+1 < st.chunks {
			next := arrival{flow: a.flow, hop: 0, chunk: a.chunk + 1, t: end}
			eng.schedule(end, func() { deliver(next) })
		}
		if a.hop+1 < len(st.path) {
			nxt := arrival{flow: a.flow, hop: a.hop + 1, chunk: a.chunk, t: end}
			eng.schedule(end, func() { deliver(nxt) })
			return
		}
		if end > done[a.flow] {
			done[a.flow] = end
		}
		if end > makespan {
			makespan = end
		}
	}
	for i, st := range states {
		if st == nil {
			continue
		}
		first := arrival{flow: i, t: at}
		eng.schedule(at, func() { deliver(first) })
	}
	eng.run()
	n.cfg.Stats.RecordEvents(eng.dispatched, makespan-at)
	return done, makespan
}

// refEngine is the former sim.Engine: a container/heap min-heap of
// closures ordered by (at, seq).
type refEngine struct {
	seq        uint64
	dispatched int64
	queue      refQueue
}

type refEvent struct {
	at  sim.Time
	seq uint64
	fn  func()
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

func (e *refEngine) schedule(at sim.Time, fn func()) {
	e.seq++
	heap.Push(&e.queue, &refEvent{at: at, seq: e.seq, fn: fn})
}

func (e *refEngine) run() {
	for len(e.queue) > 0 {
		heap.Pop(&e.queue).(*refEvent).fn()
		e.dispatched++
	}
}

// refScenario derives a random network and two overlapping flow sets
// from seed: torus or mesh, flat or hierarchical tiers, 1-3 nodes per
// port, both framings, self and zero-byte flows among mixed sizes, a
// non-zero start, and a second batch that starts while the first still
// holds resources.
func refScenario(seed int64) (topo Topology, cfg Config, mode Mode, starts [2]sim.Time, sets [2][]Flow) {
	rng := rand.New(rand.NewSource(seed))
	if rng.Intn(2) == 0 {
		topo, _ = NewTorus3D(1+rng.Intn(4), 1+rng.Intn(4), 4)
	} else {
		topo, _ = NewMesh2D(1+rng.Intn(6), 4)
	}
	cfg = testNetConfig()
	cfg.NodesPerPort = 1 + rng.Intn(3)
	cfg.ChunkBytes = []int{64, 128, 512, 4096}[rng.Intn(4)]
	if rng.Intn(2) == 0 {
		cfg.Hier = testHierarchy()
	}
	mode = Mode(rng.Intn(2))
	nodes := topo.Nodes()
	for k := range sets {
		flows := make([]Flow, rng.Intn(48))
		for i := range flows {
			var bytes int64
			switch rng.Intn(5) {
			case 0: // zero-byte
			case 1:
				bytes = 1 + rng.Int63n(64)
			case 2, 3:
				bytes = 1 + rng.Int63n(8192)
			default:
				bytes = 1 + rng.Int63n(1<<16)
			}
			src := rng.Intn(nodes)
			dst := rng.Intn(nodes)
			if rng.Intn(8) == 0 {
				dst = src
			}
			flows[i] = Flow{Src: src, Dst: dst, Bytes: bytes}
		}
		sets[k] = flows
	}
	starts[0] = sim.Time(rng.Int63n(1_000_000))
	starts[1] = starts[0] + sim.Time(rng.Int63n(50_000))
	return topo, cfg, mode, starts, sets
}

// checkBatchReference runs one scenario through Batch and refBatch on
// twin networks and requires identical results, resource accounting
// and event counts.
func checkBatchReference(t *testing.T, seed int64) {
	t.Helper()
	topo, cfg, mode, starts, sets := refScenario(seed)
	var gotStats, wantStats sim.Stats
	cfgGot, cfgWant := cfg, cfg
	cfgGot.Stats, cfgWant.Stats = &gotStats, &wantStats
	cfgGot.Hier, cfgWant.Hier = cfg.Hier.Clone(), cfg.Hier.Clone()
	got := MustNewNetwork(topo, cfgGot)
	want := MustNewNetwork(topo, cfgWant)
	for k, flows := range sets {
		gd, gm := got.Batch(starts[k], flows, mode)
		wd, wm := refBatch(want, starts[k], flows, mode)
		if gm != wm {
			t.Fatalf("seed %d batch %d: makespan %v, reference %v", seed, k, gm, wm)
		}
		for i := range wd {
			if gd[i] != wd[i] {
				t.Fatalf("seed %d batch %d flow %d %+v: done %v, reference %v", seed, k, i, flows[i], gd[i], wd[i])
			}
		}
		if gotStats.Events() != wantStats.Events() || gotStats.SimTime() != wantStats.SimTime() {
			t.Fatalf("seed %d batch %d: stats events %d simNs %v, reference %d %v", seed, k,
				gotStats.Events(), gotStats.SimTime(), wantStats.Events(), wantStats.SimTime())
		}
	}
	for _, m := range []struct {
		kind      string
		got, want map[int]*sim.Resource
	}{{"link", got.links, want.links}, {"inj", got.inj, want.inj}, {"ej", got.ej, want.ej}} {
		if len(m.got) != len(m.want) {
			t.Fatalf("seed %d: %d %s resources, reference %d", seed, len(m.got), m.kind, len(m.want))
		}
		for id, w := range m.want {
			g, ok := m.got[id]
			if !ok || g.FreeAt() != w.FreeAt() || g.Busy() != w.Busy() || g.Claims() != w.Claims() ||
				g.Utilization() != w.Utilization() {
				t.Fatalf("seed %d %s%d: %+v, reference %+v", seed, m.kind, id, g, w)
			}
		}
	}
}

func TestBatchMatchesReference(t *testing.T) {
	n := int64(300)
	if testing.Short() {
		n = 60
	}
	for seed := int64(0); seed < n; seed++ {
		checkBatchReference(t, seed)
	}
}

func FuzzBatchReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkBatchReference(t, seed)
	})
}
