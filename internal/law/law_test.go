package law

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

var testPlan = Plan{Fit: [2]int64{2, 3}, Near: []int64{5, 7}, Far: 20}

const (
	testPeriod  = 4
	testResidue = 1
)

// family returns a synthetic integer family with period 4, residue 1
// whose exact value at c periods is 10 + 3c, except where bad says the
// probe answers off by one. It logs every probe in period counts.
func family(bad func(c int64) bool, ok, far bool, probes *[]int64) Family[int64] {
	return Family[int64]{
		Period:  testPeriod,
		Residue: testResidue,
		Probe: func(words int64) (int64, bool) {
			c := words / testPeriod
			*probes = append(*probes, c)
			v := 10 + 3*c
			if bad(c) {
				v++
			}
			return v, true
		},
		Line:  func(f1, f2 int64, n int64) int64 { return f1 + n*(f2-f1) },
		Equal: func(pred, got int64) bool { return pred == got },
		Check: func(f1, f2 int64) (bool, bool) { return ok, far },
	}
}

func never(int64) bool { return false }

func at(c int64) func(int64) bool { return func(x int64) bool { return x == c } }

func TestFitAdmission(t *testing.T) {
	cases := []struct {
		name       string
		bad        func(int64) bool
		ok, far    bool
		admitted   bool
		wantProbes []int64
	}{
		{"exact affine", never, true, true, true, []int64{2, 3, 5, 7, 20}},
		{"exact affine, certified", never, true, false, true, []int64{2, 3, 5, 7}},
		{"near mismatch", at(5), true, false, false, []int64{2, 3, 5}},
		{"far-only mismatch, far required", at(20), true, true, false, []int64{2, 3, 5, 7, 20}},
		{"far-only mismatch, far not required", at(20), true, false, true, []int64{2, 3, 5, 7}},
		{"fit pair rejected", never, false, true, false, []int64{2, 3}},
	}
	for _, c := range cases {
		var probes []int64
		l := New(testPlan, family(c.bad, c.ok, c.far, &probes))
		if (l != nil) != c.admitted {
			t.Errorf("%s: admitted = %v, want %v", c.name, l != nil, c.admitted)
		}
		if !reflect.DeepEqual(probes, c.wantProbes) {
			t.Errorf("%s: probes %v, want %v", c.name, probes, c.wantProbes)
		}
		if l != nil {
			for _, n := range []int64{2, 9, 1000} {
				if got, want := l.At(n*testPeriod+testResidue), 10+3*n; got != want {
					t.Errorf("%s: At(%d periods) = %d, want %d", c.name, n, got, want)
				}
			}
		}
	}
}

// A probe that fails rejects the family, even with an exact fit pair.
func TestFitProbeFailure(t *testing.T) {
	var probes []int64
	fam := family(never, true, false, &probes)
	probe := fam.Probe
	fam.Probe = func(words int64) (int64, bool) {
		v, _ := probe(words)
		return v, words/testPeriod != 7
	}
	if New(testPlan, fam) != nil {
		t.Error("a failed verification probe must reject the family")
	}
}

func TestFitCovers(t *testing.T) {
	var probes []int64
	l := New(testPlan, family(never, true, true, &probes))
	if l == nil {
		t.Fatal("exact family must fit")
	}
	first := testPlan.Fit[0]*testPeriod + testResidue
	top := int64(MaxWords-testResidue)/testPeriod*testPeriod + testResidue // largest covered count
	for _, c := range []struct {
		words int64
		want  bool
	}{
		{first, true},
		{first - testPeriod, false}, // below the first fit probe
		{first + 1, false},          // wrong residue
		{top, true},
		{top + testPeriod, false}, // past MaxWords
		{1 << 40, false},
	} {
		if got := l.Covers(c.words); got != c.want {
			t.Errorf("Covers(%d) = %v, want %v", c.words, got, c.want)
		}
	}
}

func TestMemoComputesOnce(t *testing.T) {
	var m Memo[string, int]
	var calls, computed atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, c := m.Get("k", func() int { calls.Add(1); return 42 })
			if v != 42 {
				t.Errorf("Get = %d, want 42", v)
			}
			if c {
				computed.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if calls.Load() != 1 || computed.Load() != 1 {
		t.Errorf("f ran %d times, computed reported %d times; want 1 and 1", calls.Load(), computed.Load())
	}
	if v, c := m.Get("other", func() int { return 7 }); v != 7 || !c {
		t.Errorf("Get(other) = %d, %v; want 7, true", v, c)
	}
	if v, c := m.Get("k", func() int { return 0 }); v != 42 || c {
		t.Errorf("repeat Get(k) = %d, %v; want 42, false", v, c)
	}
}
