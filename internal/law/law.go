// Package law is the verified affine word-count kernel shared by the
// analytic sweep layers, plus the once-per-key memo their caches use.
//
// The copy-transfer model prices a basic transfer as a steady-state
// rate times its word count. Along one residue class of a structural
// period P the simulated cost of such a family is exactly affine in
// the period count c (words = c*P + r), so two probes one period apart
// fix it. A Fit is only admitted after bitwise verification: the fit
// pair is probed, the client accepts or rejects the pair (and says
// whether a far probe is needed), then every verification probe must
// reproduce the extrapolation exactly. Any mismatch yields no Fit and
// the caller evaluates the family the slow way — a law changes cost,
// never answers.
package law

import "sync"

// MaxWords bounds the word counts any law answers, keeping the integer
// extrapolation far from int64 and float64 exactness limits. Sweeps
// ask for orders of magnitude less; requests above it are rejected at
// the query boundary because the engine fallback would run for minutes.
const MaxWords = 1 << 31

// Plan is a probe plan in period counts.
type Plan struct {
	Fit  [2]int64 // the fit pair, one period apart
	Near []int64  // verification probes every fit runs
	Far  int64    // verification probe run only when the client asks for it
}

// Family is one residue class of a word-count family: how to probe it,
// extrapolate it and compare the results.
type Family[T any] struct {
	Period, Residue int64
	// Probe evaluates the family at words; false rejects the family.
	Probe func(words int64) (T, bool)
	// Line extrapolates the fit pair n periods past the first fit probe.
	Line func(f1, f2 T, n int64) T
	// Equal reports whether an extrapolation matches a probe bitwise.
	Equal func(pred, got T) bool
	// Check inspects the fit pair before any verification probe runs:
	// ok=false rejects the family, far=true demands the far probe.
	Check func(f1, f2 T) (ok, far bool)
}

// Fit is a bitwise-verified affine law for one Family.
type Fit[T any] struct {
	fam    Family[T]
	c1     int64
	f1, f2 T
}

// New probes fam along plan and returns the verified law, or nil when
// any probe fails, the client rejects the fit pair, or a verification
// probe disagrees with the extrapolation. Probes run in plan order:
// the fit pair, the near probes, then the far probe if asked for.
func New[T any](plan Plan, fam Family[T]) *Fit[T] {
	at := func(c int64) (T, bool) { return fam.Probe(c*fam.Period + fam.Residue) }
	f1, ok1 := at(plan.Fit[0])
	f2, ok2 := at(plan.Fit[1])
	if !ok1 || !ok2 {
		return nil
	}
	ok, far := fam.Check(f1, f2)
	if !ok {
		return nil
	}
	verify := func(c int64) bool {
		got, ok := at(c)
		return ok && fam.Equal(fam.Line(f1, f2, c-plan.Fit[0]), got)
	}
	for _, c := range plan.Near {
		if !verify(c) {
			return nil
		}
	}
	if far && !verify(plan.Far) {
		return nil
	}
	return &Fit[T]{fam: fam, c1: plan.Fit[0], f1: f1, f2: f2}
}

// Covers reports whether the law may answer for words: same residue
// class, at or past the first fit probe, and at most MaxWords.
func (l *Fit[T]) Covers(words int64) bool {
	return words%l.fam.Period == l.fam.Residue &&
		words >= l.c1*l.fam.Period+l.fam.Residue &&
		words <= MaxWords
}

// At extrapolates the law to words, which must be covered.
func (l *Fit[T]) At(words int64) T {
	return l.fam.Line(l.f1, l.f2, words/l.fam.Period-l.c1)
}

// Memo computes each key's value at most once, without holding its
// lock while computing, so concurrent callers needing the same key
// wait for one computation and callers needing different keys do not
// serialize. The zero Memo is ready to use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*entry[V]
}

type entry[V any] struct {
	once sync.Once
	v    V
}

// Get returns k's value, computing it with f on first need. computed
// is true for exactly one caller per key: the one whose f ran.
func (m *Memo[K, V]) Get(k K, f func() V) (v V, computed bool) {
	m.mu.Lock()
	e, ok := m.m[k]
	if !ok {
		if m.m == nil {
			m.m = map[K]*entry[V]{}
		}
		e = &entry[V]{}
		m.m[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, computed = f(), true })
	return e.v, computed
}
