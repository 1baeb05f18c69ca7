package machine

import (
	"errors"
	"testing"

	"ctcomm/internal/memsim"
	"ctcomm/internal/pattern"
)

func TestProfilesValidate(t *testing.T) {
	for _, m := range Profiles() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestProfilesAre64Nodes(t *testing.T) {
	for _, m := range Profiles() {
		if m.Nodes() != 64 {
			t.Errorf("%s: %d nodes, want 64", m.Name, m.Nodes())
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("Cray T3D") == nil || ByName("Intel Paragon") == nil {
		t.Error("profiles not found by name")
	}
	if ByName("Connection Machine") != nil {
		t.Error("unknown machine should return nil")
	}
}

func TestT3DCapabilities(t *testing.T) {
	m := T3D()
	// The annex deposit engine handles every pattern (paper §3.5.1).
	for _, s := range []pattern.Spec{pattern.Contig(), pattern.Strided(64), pattern.Indexed()} {
		if !m.Deposit.Supports(s) {
			t.Errorf("T3D deposit should support %v", s)
		}
	}
	// No separate fetch DMA is modeled for sends.
	if m.Fetch.Supports(pattern.Contig()) {
		t.Error("T3D fetch engine should be absent")
	}
	if m.CoProcessor {
		t.Error("T3D has a single processor per node")
	}
	// Two nodes share a network port.
	if m.Net.NodesPerPort != 2 {
		t.Errorf("T3D NodesPerPort = %d, want 2", m.Net.NodesPerPort)
	}
}

func TestParagonCapabilities(t *testing.T) {
	m := Paragon()
	// DMA deposit handles only contiguous blocks (paper §3.5.2).
	if !m.Deposit.Supports(pattern.Contig()) {
		t.Error("Paragon deposit should support contiguous")
	}
	for _, s := range []pattern.Spec{pattern.Strided(64), pattern.Indexed()} {
		if m.Deposit.Supports(s) {
			t.Errorf("Paragon DMA deposit should not support %v", s)
		}
	}
	if !m.Fetch.Supports(pattern.Contig()) || m.Fetch.Supports(pattern.Strided(4)) {
		t.Error("Paragon fetch DMA should be contiguous-only")
	}
	if !m.CoProcessor {
		t.Error("Paragon has a communication co-processor")
	}
}

func TestDepositSupportsRejectsPort(t *testing.T) {
	m := T3D()
	if m.Deposit.Supports(pattern.Fixed()) {
		t.Error("deposit of a port pattern is meaningless")
	}
}

func TestNewNodeIsCold(t *testing.T) {
	m := T3D()
	n := m.NewNode(3)
	if n.ID != 3 || n.Mem == nil {
		t.Fatalf("bad node: %+v", n)
	}
	res := n.Mem.RunStream(pattern.NewStream(pattern.Contig(), 0, 1), nil, memsim.InterleaveWordwise)
	if res.CacheHits != 0 {
		t.Error("fresh node should have a cold cache")
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	muts := []func(*Machine){
		func(m *Machine) { m.NI.PortStoreNs = 0 },
		func(m *Machine) { m.NI.InjectMBps = 0 },
		func(m *Machine) { m.BusMBps = 0 },
		func(m *Machine) { m.DefaultCongestion = 0.5 },
		func(m *Machine) { m.CoProcPenalty = 0 },
		func(m *Machine) { m.CoProcPenalty = 1.5 },
		func(m *Machine) { m.Topo = nil },
		func(m *Machine) { m.Mem.WordNs = -1 },
		func(m *Machine) { m.Net.LinkMBps = -1 },
	}
	for i, mut := range muts {
		m := T3D()
		mut(m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestMachineString(t *testing.T) {
	if s := T3D().String(); s == "" {
		t.Error("String should be non-empty")
	}
}

func TestSizedConstructors(t *testing.T) {
	m, err := T3DSized(2, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 128 || m.Net.NodesPerPort != 2 {
		t.Errorf("T3DSized wrong: %d nodes, %d per port", m.Nodes(), m.Net.NodesPerPort)
	}
	if _, err := T3DSized(0, 8, 8); err == nil {
		t.Error("invalid torus dims should fail")
	}
	p, err := ParagonSized(112, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes() != 1792 {
		t.Errorf("ParagonSized nodes = %d", p.Nodes())
	}
	if _, err := ParagonSized(-1, 16); err == nil {
		t.Error("invalid mesh dims should fail")
	}
}

func TestDepositMinUnit(t *testing.T) {
	d := DepositConfig{Present: true, Contig: true, Strided: true, Indexed: true, MinUnitWords: 4}
	if !d.Supports(pattern.StridedBlock(64, 4)) {
		t.Error("unit-4 engine should chain 4-word runs")
	}
	if d.Supports(pattern.Strided(64)) {
		t.Error("unit-4 engine must not chain single-word strides")
	}
	if d.Supports(pattern.Indexed()) {
		t.Error("unit-4 engine must not chain indexed patterns")
	}
	if !d.Supports(pattern.Contig()) {
		t.Error("unit-4 engine chains contiguous blocks")
	}
}

// TestConstructorErrorPath pins the no-panic contract: bad sizes reach
// the caller as ErrBadSpec through the error-returning constructors —
// the path ctserved machine-file loading depends on — while the
// panicking wrappers stay reserved for the known-good built-ins.
func TestConstructorErrorPath(t *testing.T) {
	for _, c := range []struct {
		name string
		err  func() error
	}{
		{"T3DSized(0,4,4)", func() error { _, err := T3DSized(0, 4, 4); return err }},
		{"T3DSized(-1,1,1)", func() error { _, err := T3DSized(-1, 1, 1); return err }},
		{"ParagonSized(0,16)", func() error { _, err := ParagonSized(0, 16); return err }},
	} {
		err := c.err()
		if err == nil {
			t.Errorf("%s: want error, got nil", c.name)
			continue
		}
		if !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: error %v should wrap ErrBadSpec", c.name, err)
		}
	}

	// The known-good constructors must not error (the panic wrappers
	// T3D()/Paragon()/MulticoreCluster()/CrayXE6() rely on it).
	for _, mk := range []func() (*Machine, error){NewT3D, NewParagon, NewMulticoreCluster, NewCrayXE6} {
		if m, err := mk(); err != nil || m == nil {
			t.Errorf("built-in constructor failed: %v", err)
		}
	}
}
