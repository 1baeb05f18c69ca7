package xfer

import (
	"fmt"

	"ctcomm/internal/law"
	"ctcomm/internal/machine"
	"ctcomm/internal/memsim"
	"ctcomm/internal/pattern"
)

// Analytic word-count laws.
//
// The memory-system half of an eligible basic transfer settles into an
// exact steady state (memsim ff.go): past warm-up, every whole period
// of P payload words costs a bit-identical integer-femtosecond delta.
// Its cost is therefore EXACTLY affine in the period count — for a
// fixed residue r = words mod P,
//
//	Mem(c·P + r) = A + c·D
//
// with integer-valued A and D. A Law captures A and D from two probe
// runs one period apart, verifies the fit bitwise on two further
// probes (the shared kernel, internal/law), and then produces the
// memsim.Result for ANY eligible word count by integer extrapolation
// (memsim.PredictLinear). Replaying that Result through the transfer's
// own post-math (On) yields an xfer.Result bit-identical to running
// the engine, because the post-math consumes only fields derived from
// the extrapolated integer fs values.
//
// Applicability is decided by the memory system itself: processor-path
// kinds use Memory.StreamPeriod (the fast-forward shape rule),
// engine-path kinds use Memory.EnginePeriod (DRAM page phase only).
// Every fit is then verified bitwise at two further probes. When the
// fit probes carry the FastForwarded certificate — the fast-forward
// layer proved three consecutive recurring period boundaries — that
// suffices; when they do not (the engine path has no fast-forward, and
// some configurations never satisfy its strict snapshot recurrence even
// though their per-period cost is constant), a third verification probe
// far beyond the fit region must also match. Anything else — indexed
// patterns (their permutation depends on the word count), overlapping
// strides, non-steady-state configurations, too-long periods — yields
// no Law and the caller falls back to engine evaluation.

// Kind identifies one basic-transfer flavor (the switch between the
// memory-system halves in memPart).
type Kind int

const (
	KindCopy Kind = iota
	KindLoadSend
	KindFetchSend
	KindRecvStore
	KindRecvDeposit
)

// String names the kind with the paper's transfer notation.
func (k Kind) String() string {
	switch k {
	case KindCopy:
		return "xCy"
	case KindLoadSend:
		return "xS0"
	case KindFetchSend:
		return "xF0"
	case KindRecvStore:
		return "0Ry"
	case KindRecvDeposit:
		return "0Dy"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// lawPlan probes, in period counts: the fit pair 16,17 sits past the
// longest warm-up the fast-forward layer itself tolerates (ffMaxProbe =
// 12 boundaries); 19 and 23 are coprime offsets from it, so an
// accidental two-point fit of a non-affine curve cannot survive both;
// 64 is the far probe required when the fit probes lack the
// FastForwarded certificate, well beyond the fit region and inside the
// range big sweeps actually ask for.
var lawPlan = law.Plan{Fit: [2]int64{16, 17}, Near: []int64{19, 23}, Far: 64}

// lawMaxPeriod caps the structural period a law will probe; the fit
// costs ~75 periods of simulation, which must stay well under the cost
// of the big runs the law replaces.
const lawMaxPeriod = 4096

// constRunner replays one precomputed memory-half result through the
// post-math of a transfer. It ignores its stream arguments by design:
// the result was fitted for the exact schedule those streams describe.
type constRunner struct{ res memsim.Result }

func (c constRunner) RunStream(loads, stores *pattern.Stream, policy memsim.InterleavePolicy) memsim.Result {
	return c.res
}
func (c constRunner) EngineRead(st *pattern.Stream) memsim.Result  { return c.res }
func (c constRunner) EngineWrite(st *pattern.Stream) memsim.Result { return c.res }

// periodRunner is a MemRunner that, instead of simulating, records the
// structural period of the schedule memPart hands it.
type periodRunner struct {
	mem *memsim.Memory
	p   int
}

func (r *periodRunner) RunStream(loads, stores *pattern.Stream, policy memsim.InterleavePolicy) memsim.Result {
	r.p = r.mem.StreamPeriod(loads, stores)
	return memsim.Result{}
}
func (r *periodRunner) EngineRead(st *pattern.Stream) memsim.Result {
	r.p = r.mem.EnginePeriod(st)
	return memsim.Result{}
}
func (r *periodRunner) EngineWrite(st *pattern.Stream) memsim.Result {
	r.p = r.mem.EnginePeriod(st)
	return memsim.Result{}
}

// PeriodOf returns the structural steady-state period of the transfer's
// memory half in payload words, or 0 when the shape admits no affine
// law on machine m. Pure address/shape math; nothing is simulated.
func PeriodOf(m *machine.Machine, kind Kind, x, y pattern.Spec) int {
	if x.Kind() == pattern.KindIndexed || y.Kind() == pattern.KindIndexed {
		return 0
	}
	// The transfer itself builds the schedule and applies its own
	// admission checks: a shape it rejects outright gets no law either.
	// 8 representative words only fix the shape; the period is
	// length-independent.
	r := &periodRunner{mem: memsim.MustNew(m.Mem)}
	if _, err := On(m, r, kind, x, y, 8); err != nil || r.p > lawMaxPeriod {
		return 0
	}
	return r.p
}

// Law is a fitted, bitwise-verified affine word-count law for one basic
// transfer shape on one machine, valid for word counts congruent to its
// residue modulo its period.
type Law struct {
	m    *machine.Machine
	kind Kind
	x, y pattern.Spec
	fit  *law.Fit[memsim.Result]
}

// FitLaw probes, fits and verifies the law for word counts congruent to
// residue mod the shape's period. It returns nil when the shape is not
// law-eligible or when any probe fails to certify steady state — the
// caller must then evaluate with the engine. Probes run on fresh
// memories exactly like the engine path does, so a fitted law stands in
// for engine runs bit for bit.
func FitLaw(m *machine.Machine, kind Kind, x, y pattern.Spec, residue int) *Law {
	p := PeriodOf(m, kind, x, y)
	if p == 0 || residue < 0 || residue >= p {
		return nil
	}
	fit := law.New(lawPlan, law.Family[memsim.Result]{
		Period:  int64(p),
		Residue: int64(residue),
		Probe: func(words int64) (memsim.Result, bool) {
			return memPart(memsim.MustNew(m.Mem), kind, x, y, int(words)), true
		},
		Line:  memsim.PredictLinear,
		Equal: func(pred, got memsim.Result) bool { return pred == got },
		// Without the fast-forward certificate on the fit probes (engine
		// path, or a configuration whose snapshot recurrence never
		// settles though its per-period cost is constant) demand the
		// far probe too.
		Check: func(r1, r2 memsim.Result) (bool, bool) {
			return true, !(r1.FastForwarded && r2.FastForwarded)
		},
	})
	if fit == nil {
		return nil
	}
	return &Law{m: m, kind: kind, x: x, y: y, fit: fit}
}

// Covers reports whether the law may answer for words: same residue
// class, at or past the first fit probe, at most law.MaxWords, and (for
// two-stream copies) a read footprint that still clears the write
// region.
func (l *Law) Covers(words int) bool {
	if !l.fit.Covers(int64(words)) {
		return false
	}
	// The probes proved region disjointness at probe length; the target
	// length must not grow the read side into the write base.
	return l.kind != KindCopy || pattern.NewStream(l.x, srcBase, words).Footprint() <= dstBase
}

// Eval produces the transfer result for words by integer extrapolation
// replayed through the transfer's own post-math. The caller must have
// checked Covers.
func (l *Law) Eval(words int) (Result, error) {
	if !l.Covers(words) {
		return Result{}, fmt.Errorf("xfer: law %s %v/%v does not cover %d words", l.kind, l.x, l.y, words)
	}
	return On(l.m, constRunner{l.fit.At(int64(words))}, l.kind, l.x, l.y, words)
}
