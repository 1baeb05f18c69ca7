// Package xfer executes the basic transfers of the copy-transfer model
// on a simulated node (Stricker/Gross, ISCA 1995, §3.2):
//
//	xCy  local memory-to-memory copy (processor load/store loop)
//	xS0  load-send: memory -> network port, by the processor
//	xF0  fetch-send: memory -> network, by a DMA/fetch engine
//	0Ry  receive-store: network port -> memory, by the processor
//	0Dy  receive-deposit: network -> memory, by the deposit engine
//
// Each call simulates the transfer at word granularity against the
// node's memory system and returns elapsed simulated time plus how long
// each node resource (processor, DRAM, engine) was held, which is what
// the composition rules of the model need.
//
// Every transfer splits into a memory-system half (exact integer-fs
// simulation, behind the MemRunner seam) and a float post-math half
// (port costs, NI clamps, engine setup). The *On variants expose the
// seam so the analytic sweep layer (law.go) can substitute an
// extrapolated memsim.Result and still run the identical post-math,
// which is what makes analytic results bit-identical to engine runs.
package xfer

import (
	"fmt"

	"ctcomm/internal/machine"
	"ctcomm/internal/memsim"
	"ctcomm/internal/pattern"
)

// Result reports one simulated basic transfer.
type Result struct {
	PayloadBytes int64
	ElapsedNs    float64
	CPUNs        float64 // time the (main) processor was held
	DRAMNs       float64 // DRAM bank occupancy
	EngineNs     float64 // DMA/deposit engine occupancy
}

// MBps returns payload throughput in MB/s.
func (r Result) MBps() float64 { return memsim.MBps(r.PayloadBytes, r.ElapsedNs) }

// MemRunner is the memory-system backend of a basic transfer: the
// subset of *memsim.Memory the transfer functions drive. The analytic
// law layer substitutes a constant-result implementation to replay an
// extrapolated steady-state run through the identical post-math.
type MemRunner interface {
	RunStream(loads, stores *pattern.Stream, policy memsim.InterleavePolicy) memsim.Result
	EngineRead(st *pattern.Stream) memsim.Result
	EngineWrite(st *pattern.Stream) memsim.Result
}

// Default buffer placement: source, destination and index regions live
// in distinct memory areas so streams do not alias.
const (
	srcBase = 0
	dstBase = 1 << 30
)

// streams builds the read- and write-side streams for a transfer of
// words payload words, generating deterministic permutations for indexed
// sides.
func streams(read, write pattern.Spec, words int) (r, w *pattern.Stream) {
	r = pattern.NewStream(read, srcBase, words)
	if read.Kind() == pattern.KindIndexed {
		r.WithIndex(pattern.Permutation(words, 0x5EED0001))
	}
	w = pattern.NewStream(write, dstBase, words)
	if write.Kind() == pattern.KindIndexed {
		w.WithIndex(pattern.Permutation(words, 0x5EED0002))
	}
	return r, w
}

// Copy simulates the local memory-to-memory copy xCy of words payload
// words on the node. Both patterns must reference memory (not a port).
// The read and write streams are zipped payload-word by payload-word
// with each side's overhead (index) loads immediately before the payload
// access they serve — the unrolled, optimally scheduled load/store loop
// of the xCy copy (memsim.InterleaveWordwise).
func Copy(n *machine.Node, read, write pattern.Spec, words int) (Result, error) {
	return CopyOn(n.M, n.Mem, read, write, words)
}

// CopyOn is Copy with an explicit memory backend.
func CopyOn(m *machine.Machine, mem MemRunner, read, write pattern.Spec, words int) (Result, error) {
	if !read.IsMemory() || !write.IsMemory() {
		return Result{}, fmt.Errorf("xfer: Copy requires memory patterns, got %v -> %v", read, write)
	}
	res := memPart(mem, KindCopy, read, write, words)
	return Result{
		PayloadBytes: int64(words) * pattern.WordBytes,
		ElapsedNs:    res.ElapsedNs,
		CPUNs:        res.ElapsedNs, // the processor drives the whole copy
		DRAMNs:       res.DRAMBusyNs,
	}, nil
}

// LoadSend simulates xS0: the processor loads words with pattern read
// and stores each to the memory-mapped network port. The port store is
// processor time; the overall rate is additionally capped by the NI
// injection bandwidth.
func LoadSend(n *machine.Node, read pattern.Spec, words int) (Result, error) {
	return LoadSendOn(n.M, n.Mem, read, words)
}

// LoadSendOn is LoadSend with an explicit memory backend.
func LoadSendOn(m *machine.Machine, mem MemRunner, read pattern.Spec, words int) (Result, error) {
	if !read.IsMemory() {
		return Result{}, fmt.Errorf("xfer: LoadSend requires a memory read pattern, got %v", read)
	}
	res := memPart(mem, KindLoadSend, read, pattern.Spec{}, words)
	elapsed := res.ElapsedNs + float64(words)*m.NI.PortStoreNs
	payload := int64(words) * pattern.WordBytes
	if lim := float64(payload) * 1e3 / m.NI.InjectMBps; elapsed < lim {
		elapsed = lim
	}
	return Result{
		PayloadBytes: payload,
		ElapsedNs:    elapsed,
		CPUNs:        elapsed,
		DRAMNs:       res.DRAMBusyNs,
	}, nil
}

// FetchSend simulates xF0: a fetch engine (DMA) reads memory in the
// background and feeds the network. It fails if the node has no engine
// or the engine cannot handle the pattern.
func FetchSend(n *machine.Node, read pattern.Spec, words int) (Result, error) {
	return FetchSendOn(n.M, n.Mem, read, words)
}

// FetchSendOn is FetchSend with an explicit memory backend.
func FetchSendOn(m *machine.Machine, mem MemRunner, read pattern.Spec, words int) (Result, error) {
	if !m.Fetch.Supports(read) {
		return Result{}, fmt.Errorf("xfer: %s fetch engine cannot read pattern %v", m.Name, read)
	}
	res := memPart(mem, KindFetchSend, read, pattern.Spec{}, words)
	payload := int64(words) * pattern.WordBytes
	elapsed := res.ElapsedNs
	if lim := float64(payload) * 1e3 / m.Fetch.RateMBps; elapsed < lim {
		elapsed = lim
	}
	if lim := float64(payload) * 1e3 / m.NI.InjectMBps; elapsed < lim {
		elapsed = lim
	}
	rs, _ := streams(read, pattern.Contig(), words)
	cpu := m.Fetch.SetupNs + float64(pages(rs, m.Mem.PageBytes))*m.Fetch.KickNs
	return Result{
		PayloadBytes: payload,
		ElapsedNs:    elapsed + cpu, // setup/kicks serialize with the stream
		CPUNs:        cpu,
		DRAMNs:       res.DRAMBusyNs,
		EngineNs:     elapsed,
	}, nil
}

// RecvStore simulates 0Ry: the processor reads incoming words from the
// network port and stores them with pattern write. Addresses arrive with
// the data (or are generated locally), so no index overhead loads occur.
func RecvStore(n *machine.Node, write pattern.Spec, words int) (Result, error) {
	return RecvStoreOn(n.M, n.Mem, write, words)
}

// RecvStoreOn is RecvStore with an explicit memory backend.
func RecvStoreOn(m *machine.Machine, mem MemRunner, write pattern.Spec, words int) (Result, error) {
	if !write.IsMemory() {
		return Result{}, fmt.Errorf("xfer: RecvStore requires a memory write pattern, got %v", write)
	}
	res := memPart(mem, KindRecvStore, pattern.Spec{}, write, words)
	elapsed := res.ElapsedNs + float64(words)*m.NI.PortLoadNs
	payload := int64(words) * pattern.WordBytes
	if lim := float64(payload) * 1e3 / m.NI.EjectMBps; elapsed < lim {
		elapsed = lim
	}
	return Result{
		PayloadBytes: payload,
		ElapsedNs:    elapsed,
		CPUNs:        elapsed,
		DRAMNs:       res.DRAMBusyNs,
	}, nil
}

// RecvDeposit simulates 0Dy: the deposit engine takes address-data pairs
// (or a contiguous block) off the network and stores them in the
// background. It fails if the engine cannot handle the pattern.
func RecvDeposit(n *machine.Node, write pattern.Spec, words int) (Result, error) {
	return RecvDepositOn(n.M, n.Mem, write, words)
}

// RecvDepositOn is RecvDeposit with an explicit memory backend.
func RecvDepositOn(m *machine.Machine, mem MemRunner, write pattern.Spec, words int) (Result, error) {
	if !m.Deposit.Supports(write) {
		return Result{}, fmt.Errorf("xfer: %s deposit engine cannot write pattern %v", m.Name, write)
	}
	res := memPart(mem, KindRecvDeposit, pattern.Spec{}, write, words)
	payload := int64(words) * pattern.WordBytes
	elapsed := res.ElapsedNs
	if lim := float64(payload) * 1e3 / m.NI.EjectMBps; elapsed < lim {
		elapsed = lim
	}
	_, ws := streams(pattern.Contig(), write, words)
	cpu := m.Deposit.SetupNs + float64(pages(ws, m.Mem.PageBytes))*m.Deposit.KickNs
	return Result{
		PayloadBytes: payload,
		ElapsedNs:    elapsed + cpu,
		CPUNs:        cpu,
		DRAMNs:       res.DRAMBusyNs,
		EngineNs:     elapsed,
	}, nil
}

// On runs the basic transfer of the given kind with an explicit memory
// backend. x is the read-side pattern (Copy, LoadSend, FetchSend), y the
// write-side pattern (Copy, RecvStore, RecvDeposit); the unused side is
// ignored.
func On(m *machine.Machine, mem MemRunner, kind Kind, x, y pattern.Spec, words int) (Result, error) {
	switch kind {
	case KindCopy:
		return CopyOn(m, mem, x, y, words)
	case KindLoadSend:
		return LoadSendOn(m, mem, x, words)
	case KindFetchSend:
		return FetchSendOn(m, mem, x, words)
	case KindRecvStore:
		return RecvStoreOn(m, mem, y, words)
	case KindRecvDeposit:
		return RecvDepositOn(m, mem, y, words)
	default:
		return Result{}, fmt.Errorf("xfer: unknown transfer kind %v", kind)
	}
}

// memPart runs the memory-system half of one basic transfer. Stream
// construction lives here, in ONE place, so the engine path, the law
// prober and the analytic replay all drive byte-identical schedules.
// x is the read-side pattern (Copy, LoadSend, FetchSend), y the
// write-side pattern (Copy, RecvStore, RecvDeposit); the unused side is
// ignored.
func memPart(mem MemRunner, kind Kind, x, y pattern.Spec, words int) memsim.Result {
	switch kind {
	case KindCopy:
		rs, ws := streams(x, y, words)
		return mem.RunStream(rs, ws.ForWrites(), memsim.InterleaveWordwise)
	case KindLoadSend:
		rs, _ := streams(x, pattern.Contig(), words)
		return mem.RunStream(rs, nil, memsim.InterleaveWordwise)
	case KindFetchSend:
		rs, _ := streams(x, pattern.Contig(), words)
		return mem.EngineRead(rs)
	case KindRecvStore:
		_, ws := streams(pattern.Contig(), y, words)
		// No overhead loads: the scatter addresses come off the wire.
		return mem.RunStream(nil, ws.ForWrites().NoIndexOverhead(), memsim.InterleaveWordwise)
	case KindRecvDeposit:
		_, ws := streams(pattern.Contig(), y, words)
		return mem.EngineWrite(ws)
	default:
		panic(fmt.Sprintf("xfer: unknown transfer kind %v", kind))
	}
}

// pages returns how many DRAM pages the stream touches (the unit of
// "kick" attention restricted Paragon engines need).
func pages(st *pattern.Stream, pageBytes int) int64 {
	fp := st.Footprint()
	if fp == 0 {
		return 0
	}
	return (fp + int64(pageBytes) - 1) / int64(pageBytes)
}
