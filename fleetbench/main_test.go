package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"ctcomm/internal/sweep"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, b := genPointMix(7, 1000), genPointMix(7, 1000)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].FP != b[i].FP || string(a[i].Body) != string(b[i].Body) || a[i].First != b[i].First {
			t.Fatalf("request %d differs between two draws of seed 7", i)
		}
	}
	if c := genPointMix(8, 1000); string(c[0].Body) == string(a[0].Body) && string(c[1].Body) == string(a[1].Body) {
		t.Error("seeds 7 and 8 drew the same first request")
	}
	cold := 0
	for i := range a {
		if a[i].cold(i) {
			cold++
		}
	}
	if share := float64(cold) / float64(len(a)); share < 0.6 || share > 0.8 {
		t.Errorf("cold share %.2f, want about two thirds", share)
	}
	if short := genPointMix(7, 300); !reflect.DeepEqual(short, a[:300]) {
		t.Error("a shorter draw of seed 7 is not a prefix of the longer one")
	}
	for _, w := range []string{"sweep_price", "sweep_collective"} {
		x, y := sweepBlock(w, 3, 2), sweepBlock(w, 3, 2)
		if !reflect.DeepEqual(x, y) {
			t.Errorf("%s: block 2 of seed 3 differs between draws", w)
		}
		if reflect.DeepEqual(x, sweepBlock(w, 4, 2)) {
			t.Errorf("%s: seeds 3 and 4 drew the same block", w)
		}
	}
}

// TestSameSeedSameDigest runs small seeded inputs through a real fleet
// twice: every answer must check out and the digests must agree.
func TestSameSeedSameDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("boots fleets")
	}
	reqs := genPointMix(11, 150)
	small := sweep.Spec{Kind: "price", Machines: []string{"t3d", "paragon"}, Ops: []string{"1Q64", "8Q2"},
		Styles: styles, Words: []int{4096, 8192, 12288}}
	sweeps := []sweepReq{newSweepReq(small), newSweepReq(small)}
	sweeps[1].Repeat = true

	var digests []string
	for run := 0; run < 2; run++ {
		f, c, _, err := setUp()
		if err != nil {
			t.Fatal(err)
		}
		rs, _ := runClosedLoop(c, f.base, reqs, func(time.Duration) bool { return true })
		var srs []sweepResult
		for _, q := range sweeps {
			srs = append(srs, postSweep(c, f.base+"/v1/sweep", q, time.Now()))
		}
		c.CloseIdleConnections()
		f.stop()
		pc := checkPoint(reqs, rs)
		sc := checkSweeps(srs)
		for i, bad := range pc.failed {
			if bad {
				t.Fatalf("run %d: point request %d failed: HTTP %d %s", run, i, rs[i].code, rs[i].errBody)
			}
		}
		for i, n := range sc.failedRows {
			if n > 0 {
				t.Fatalf("run %d: sweep %d has %d failed rows", run, i, n)
			}
		}
		digests = append(digests, string(pc.digest[:])+string(sc.digest[:]))
	}
	if digests[0] != digests[1] {
		t.Error("two runs of the same inputs gave different answer digests")
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		v, pct  float64
		comment string
	}{
		{2000, 1980, 99, "p99 has 20 samples beyond it"},
		{1000, 990, 99, "p99 has exactly 10 beyond"},
		{100, 90, 90, "the highest with 10 beyond is p90"},
		{40, 30, 75, ""},
		{15, 8, 50, "too few: the median"},
		{4, 2.5, 50, "even count: the median"},
	} {
		v, pct := tail(seq(c.n))
		if v != c.v || pct != c.pct {
			t.Errorf("n=%d: tail = %g at p%g, want %g at p%g (%s)", c.n, v, pct, c.v, c.pct, c.comment)
		}
		if c.n >= 11 && pct > 50 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond the reported p%g", c.n, beyond, pct)
			}
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, program has %v", names, workloads)
	}

	units := func(m metrics) map[string]string {
		out := map[string]string{}
		for k, v := range m {
			out[k] = v.Unit
		}
		return out
	}
	wantE2E := map[string]string{}
	for _, x := range bj.EndToEnd {
		wantE2E[x.Name] = x.Unit
	}
	m := metrics{"setup_s": {Unit: "s"}}
	point := pointMetrics(m, []pointReq{{}}, []pointResult{{}}, pointCheck{failed: []bool{false}}, time.Second, 0, 0)
	if got := units(point.m); !reflect.DeepEqual(got, wantE2E) {
		t.Errorf("point_mix end-to-end metrics %v, BENCHMARK.json has %v", sortedKeys(got), sortedKeys(wantE2E))
	}
	m = metrics{"setup_s": {Unit: "s"}}
	sw := sweepMetrics(m, []sweepResult{{}}, sweepCheck{failedRows: []int{0}}, time.Second, 0, 0)
	if got := units(sw.m); !reflect.DeepEqual(got, wantE2E) {
		t.Errorf("sweep end-to-end metrics %v, BENCHMARK.json has %v", sortedKeys(got), sortedKeys(wantE2E))
	}

	if len(bj.PerLayer) != len(layerMetricsList) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bj.PerLayer), len(layerMetricsList))
	}
	for i, x := range layerMetricsList {
		y := bj.PerLayer[i]
		if x.name != y.Name || x.unit != y.Unit || x.better != y.Better {
			t.Errorf("per-layer metric %d: program %+v, BENCHMARK.json %+v", i, x, y)
		}
	}
}

func sortedKeys(m map[string]string) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
