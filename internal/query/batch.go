package query

import (
	"strings"
	"sync"

	"ctcomm/internal/calibrate"
	"ctcomm/internal/collective"
	"ctcomm/internal/comm"
	"ctcomm/internal/law"
	"ctcomm/internal/machine"
	"ctcomm/internal/model"
	"ctcomm/internal/netsim"
)

// Batch is the shared evaluation context for one sweep (or any other
// batch of point queries). The batchless entry points re-resolve the
// machine, rebuild the rate table and simulate every memory stage from
// scratch on each call — fine for one query, quadratic waste for a
// grid. A Batch hoists all of that to once-per-batch: machines resolve
// once per name (aliases of one profile share a single *Machine, so
// the comm session's pointer-keyed state is shared too), rate tables
// convert once per (rates, machine), and price queries run through one
// comm.Session, which memoizes basic-transfer stages across styles,
// congestion levels and duplex settings and answers the element-count
// axis by bitwise-verified analytic word-count laws instead of
// re-running the engine. Collective queries run through one
// collective.Session the same way: plans and their congestion factors
// resolve once, and the words axis is answered by bitwise-verified
// affine makespan laws instead of re-simulating every phase.
//
// The contract: a Batch changes cost, never answers. Every response —
// including its rendered Text — is byte-identical to the batchless
// Eval/Price/Plan for the same request. TestBatchBitIdentical and the
// sweep-level differential tests enforce this.
//
// A Batch is safe for concurrent use by many sweep workers.
type Batch struct {
	mu sync.Mutex
	// byName memoizes resolution per requested spelling; byProfile
	// dedupes spellings onto one *Machine per profile name.
	byName    map[string]*machine.Machine
	byProfile map[string]*machine.Machine
	tables    law.Memo[tableKey, batchTable]
	session   *comm.Session
	coll      *collective.Session
}

type batchTable struct {
	rt  *model.RateTable
	err error
}

type tableKey struct {
	rates string
	m     *machine.Machine // pointer identity: one *Machine per profile per batch
	level string           // canonical tier spelling; "" = default view
}

// NewBatch returns an empty batch context.
func NewBatch() *Batch {
	return &Batch{
		byName:    map[string]*machine.Machine{},
		byProfile: map[string]*machine.Machine{},
		session:   comm.NewSession(),
		coll:      collective.NewSession(),
	}
}

// Machine is ResolveMachine memoized on the batch: each profile is
// resolved at most once, and every accepted spelling of it returns the
// same pointer.
func (b *Batch) Machine(name string) (*machine.Machine, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	b.mu.Lock()
	defer b.mu.Unlock()
	if m, ok := b.byName[key]; ok {
		return m, nil
	}
	m, err := ResolveMachine(name)
	if err != nil {
		// Resolution errors are not memoized: they are cheap and must
		// keep the exact ResolveMachine text.
		return nil, err
	}
	if prev, ok := b.byProfile[m.Name]; ok {
		m = prev
	} else {
		b.byProfile[m.Name] = m
	}
	b.byName[key] = m
	return m, nil
}

// table is rateTable memoized on the batch. The calibrated branch uses
// calibrate.SharedRateTable, so the conversion (and on a cache miss,
// the measurement) happens once per configuration process-wide instead
// of once per cell.
func (b *Batch) table(rates string, m *machine.Machine, level *netsim.Level) (*model.RateTable, error) {
	k := tableKey{rates: rates, m: m}
	if level != nil {
		k.level = level.String()
	}
	t, _ := b.tables.Get(k, func() batchTable {
		switch {
		case rates == "calibrated" && level != nil:
			return batchTable{rt: calibrate.SharedRateTableAt(m, *level)}
		case rates == "calibrated":
			return batchTable{rt: calibrate.SharedRateTable(m)}
		}
		rt, err := rateTable(rates, m, level)
		return batchTable{rt, err}
	})
	return t.rt, t.err
}

// Eval answers r through the batch's shared machine and rate-table
// state. The bool is the analytic marker; eval queries are pure model
// arithmetic (no per-cell engine simulation to elide), so it is always
// false — only priced cells can be analytic.
func (b *Batch) Eval(r EvalRequest) (EvalResponse, bool, error) {
	resp, err := eval(r, b)
	return resp, false, err
}

// Price answers r through the batch's comm session. The bool reports
// whether every memory stage came from an analytic word-count law
// rather than an engine simulation — provenance only: by the session's
// bit-identity contract the response is identical either way.
func (b *Batch) Price(r PriceRequest) (PriceResponse, bool, error) {
	return price(r, b)
}

// Plan answers r through the batch's shared machine state. Plan
// execution prices whole redistribution plans (congestion derived from
// the plan's own traffic), which the analytic laws do not model; it
// always runs the engine path, so the analytic marker is always false.
func (b *Batch) Plan(r PlanRequest) (PlanResponse, bool, error) {
	resp, err := plan(r, b)
	return resp, false, err
}
