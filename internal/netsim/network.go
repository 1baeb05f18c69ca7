package netsim

import (
	"fmt"

	"ctcomm/internal/sim"
)

// Network is the event-level simulator: it pushes chunked messages over
// the directed links of a topology, with per-link serialization, shared
// injection/ejection ports, and mode-dependent framing overhead. Chunks
// of concurrent messages in one Batch are interleaved round-robin; the
// paper notes that for a throughput-oriented model it is irrelevant
// whether data multiplexes per flit or per message (§4.3).
type Network struct {
	topo  Topology
	cfg   Config
	links map[int]*sim.Resource
	inj   map[int]*sim.Resource
	ej    map[int]*sim.Resource
}

// NewNetwork validates cfg and builds an idle network over topo.
func NewNetwork(topo Topology, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Network{
		topo:  topo,
		cfg:   cfg,
		links: make(map[int]*sim.Resource),
		inj:   make(map[int]*sim.Resource),
		ej:    make(map[int]*sim.Resource),
	}, nil
}

// MustNewNetwork is NewNetwork for known-good configurations.
func MustNewNetwork(topo Topology, cfg Config) *Network {
	n, err := NewNetwork(topo, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Topology returns the network's topology.
func (n *Network) Topology() Topology { return n.topo }

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// Reset returns all links and ports to idle.
func (n *Network) Reset() {
	n.links = make(map[int]*sim.Resource)
	n.inj = make(map[int]*sim.Resource)
	n.ej = make(map[int]*sim.Resource)
}

func (n *Network) link(id int) *sim.Resource {
	r, ok := n.links[id]
	if !ok {
		r = sim.NewResource(fmt.Sprintf("link%d", id))
		n.links[id] = r
	}
	return r
}

func (n *Network) port(m map[int]*sim.Resource, kind string, node int) *sim.Resource {
	p := node / n.cfg.NodesPerPort
	r, ok := m[p]
	if !ok {
		r = sim.NewResource(fmt.Sprintf("%s%d", kind, p))
		m[p] = r
	}
	return r
}

// nsPerByteFor converts the link bandwidth on the src->dst flow's
// hierarchy tier to ns per wire byte. Flat configurations use the
// single link rate (the exact pre-hierarchy float expression, so their
// simulated times stay bit-identical). Tier copy costs and startups
// deliberately do NOT enter the event simulation — they are endpoint
// model constants, folded in by Config.RateAt and the analytic layer —
// so SendStream's closed form and Batch remain mutually consistent.
func (n *Network) nsPerByteFor(src, dst int) float64 {
	if n.cfg.Hier == nil {
		return 1e3 / n.cfg.LinkMBps
	}
	return 1e3 / n.cfg.Hier.Level(n.cfg.Hier.LevelOf(src, dst)).LinkMBps
}

// path returns the resource chain a message from src to dst traverses:
// injection port, route links, ejection port.
func (n *Network) path(src, dst int) []*sim.Resource {
	route := n.topo.Route(src, dst)
	rs := make([]*sim.Resource, 0, len(route)+2)
	rs = append(rs, n.port(n.inj, "inj", src))
	for _, l := range route {
		rs = append(rs, n.link(l))
	}
	rs = append(rs, n.port(n.ej, "ej", dst))
	return rs
}

// Send pushes one message and returns its delivery time. The payload is
// expanded to wire bytes per the mode's framing and cut into chunks that
// traverse the path store-and-forward; with the default small chunk size
// this approximates wormhole pipelining. Send delegates to SendStream.
func (n *Network) Send(at sim.Time, src, dst int, payload int64, mode Mode) sim.Time {
	return n.SendStream(at, src, dst, payload, mode)
}

// SendStream pushes one framed message stream and returns its delivery
// time. When the whole path is idle at time at — the overwhelmingly
// common case for the single-flow micro-benchmarks — the store-and-
// forward pipeline has a closed form, so the chunk-level event
// simulation is skipped: a message of c equal chunks over h hops is a
// uniform flow shop whose chunk completions are end(chunk,hop) =
// at + (chunk+1+hop)·d, with only the shorter final chunk handled
// iteratively. Delivery times, recorded statistics and per-resource
// accounting (free time, busy time, claim counts, first/last use) are
// identical to what Batch produces for the same single flow; any busy
// resource on the path falls back to Batch.
func (n *Network) SendStream(at sim.Time, src, dst int, payload int64, mode Mode) sim.Time {
	wire := n.cfg.WireBytes(mode, payload)
	if src == dst || wire == 0 {
		n.cfg.Stats.RecordEvents(0, 0)
		return at
	}
	path := n.path(src, dst)
	for _, r := range path {
		if r.FreeAt() > at {
			done, _ := n.Batch(at, []Flow{{Src: src, Dst: dst, Bytes: payload}}, mode)
			return done[0]
		}
	}

	chunkBytes := int64(n.cfg.ChunkBytes)
	perByte := n.nsPerByteFor(src, dst)
	chunks := (wire + chunkBytes - 1) / chunkBytes
	d := chunkDur(chunkBytes, perByte)
	dl := chunkDur(wire-(chunks-1)*chunkBytes, perByte)
	d0 := d
	if chunks == 1 {
		d0 = dl
	}

	// e is the completion time of the final chunk at the current hop;
	// full chunks complete at at + (chunk+1+hop)·d and never wait on the
	// final chunk, so per-hop state depends on e and the closed form only.
	e := at + sim.Time(chunks-1)*d + dl
	busy := sim.Time(chunks-1)*d + dl
	for h, r := range path {
		if h > 0 {
			// The final chunk arrives when it left the previous hop and
			// the hop frees after the preceding full chunk.
			prevFree := at + sim.Time(chunks-1+int64(h))*d
			if chunks == 1 {
				prevFree = 0
			}
			if prevFree > e {
				e = prevFree
			}
			e += dl
		}
		start0 := at + sim.Time(h)*d0 // first chunk starts the hop here
		r.ClaimBulk(chunks, start0, e, busy)
	}
	n.cfg.Stats.RecordEvents(chunks*int64(len(path)), e-at)
	return e
}

// Batch pushes a set of concurrent flows starting at time at and
// returns the per-flow delivery times and the overall makespan. Flows
// between identical nodes complete immediately.
//
// The simulation is event-driven store-and-forward at chunk
// granularity: every resource (injection port, link, ejection port)
// serves queued chunks first-come-first-served, a chunk advances to the
// next hop when its service there completes, and a flow's next chunk
// enters the injection port as soon as the previous one leaves it.
// With the default small chunk size this approximates wormhole
// pipelining while letting congestion emerge from real link contention.
func (n *Network) Batch(at sim.Time, flows []Flow, mode Mode) (done []sim.Time, makespan sim.Time) {
	done = make([]sim.Time, len(flows))
	makespan = at

	// Resources serve arrivals in (time, push order) order, which the
	// agenda guarantees by construction: the loop always takes the
	// earliest pending arrival and claims its resource then.
	var agenda sim.Agenda[arrival]
	states := make([]flowState, len(flows))
	chunkBytes := int64(n.cfg.ChunkBytes)
	for i, f := range flows {
		wire := n.cfg.WireBytes(mode, f.Bytes)
		if f.Src == f.Dst || wire == 0 {
			done[i] = at
			continue
		}
		chunks := (wire + chunkBytes - 1) / chunkBytes
		states[i] = flowState{
			path:      n.path(f.Src, f.Dst),
			chunks:    chunks,
			lastBytes: wire - (chunks-1)*chunkBytes,
			perByte:   n.nsPerByteFor(f.Src, f.Dst),
		}
		agenda.Push(at, arrival{flow: int32(i)})
	}

	for {
		a, ok := agenda.Pop()
		if !ok {
			break
		}
		st := &states[a.flow]
		bytes := chunkBytes
		if a.chunk == st.chunks-1 {
			bytes = st.lastBytes
		}
		_, end := st.path[a.hop].Claim(agenda.Now(), chunkDur(bytes, st.perByte))
		if a.hop == 0 && a.chunk+1 < st.chunks {
			// The next chunk may enter the injection port once this one
			// left it.
			agenda.Push(end, arrival{flow: a.flow, chunk: a.chunk + 1})
		}
		if int(a.hop)+1 < len(st.path) {
			agenda.Push(end, arrival{flow: a.flow, hop: a.hop + 1, chunk: a.chunk})
			continue
		}
		// Final hop: delivery.
		if end > done[a.flow] {
			done[a.flow] = end
		}
		if end > makespan {
			makespan = end
		}
	}
	n.cfg.Stats.RecordEvents(agenda.Dispatched(), makespan-at)
	return done, makespan
}

// flowState is one non-trivial flow of a Batch.
type flowState struct {
	path      []*sim.Resource
	chunks    int64   // total chunks
	lastBytes int64   // size of the final chunk
	perByte   float64 // ns per wire byte on the flow's hierarchy tier
}

// arrival is one chunk of a Batch flow reaching one hop of its path;
// the agenda holds its time.
type arrival struct {
	flow, hop int32
	chunk     int64
}

// chunkDur is the service time of a chunk of the given wire size on
// one resource, rounded to the nearest nanosecond and at least 1 so a
// claim always ends strictly after it starts.
func chunkDur(bytes int64, perByte float64) sim.Time {
	d := sim.Time(float64(bytes)*perByte + 0.5)
	if d < 1 {
		d = 1
	}
	return d
}
