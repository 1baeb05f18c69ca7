// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Each benchmark reports the simulated throughput of the
// reproduced artifact as the custom metric "simMB/s" — the number to
// compare against the paper — while the standard time/op measures the
// cost of the simulation itself.
package ctcomm_test

import (
	"testing"

	"ctcomm/internal/aapc"
	"ctcomm/internal/apps/fem"
	"ctcomm/internal/apps/fft"
	"ctcomm/internal/apps/sor"
	"ctcomm/internal/calibrate"
	"ctcomm/internal/comm"
	"ctcomm/internal/distrib"
	"ctcomm/internal/machine"
	"ctcomm/internal/memsim"
	"ctcomm/internal/model"
	"ctcomm/internal/netsim"
	"ctcomm/internal/pattern"
	"ctcomm/internal/xfer"
)

const benchWords = 1 << 14

// reportRate attaches the simulated throughput metric.
func reportRate(b *testing.B, mbps float64) {
	b.Helper()
	b.ReportMetric(mbps, "simMB/s")
}

// --- Figure 1: PVM vs fastest library over block size -----------------

func BenchmarkFig1(b *testing.B) {
	for _, m := range machine.Profiles() {
		for _, style := range []comm.Style{comm.PVM, comm.Direct} {
			b.Run(m.Name+"/"+style.String(), func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					res, err := comm.Run(m, style, pattern.Contig(), pattern.Contig(),
						comm.Options{Words: benchWords})
					if err != nil {
						b.Fatal(err)
					}
					last = res.MBps()
				}
				b.SetBytes(benchWords * 8)
				reportRate(b, last)
			})
		}
	}
}

// --- Table 1 / Figure 4: local copies ---------------------------------

func BenchmarkTable1LocalCopies(b *testing.B) {
	cases := []struct {
		name string
		r, w pattern.Spec
	}{
		{"1C1", pattern.Contig(), pattern.Contig()},
		{"1C64", pattern.Contig(), pattern.Strided(64)},
		{"64C1", pattern.Strided(64), pattern.Contig()},
		{"1Cw", pattern.Contig(), pattern.Indexed()},
		{"wC1", pattern.Indexed(), pattern.Contig()},
	}
	for _, m := range machine.Profiles() {
		for _, c := range cases {
			b.Run(m.Name+"/"+c.name, func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					res, err := xfer.Copy(m.NewNode(0), c.r, c.w, benchWords)
					if err != nil {
						b.Fatal(err)
					}
					last = res.MBps()
				}
				b.SetBytes(benchWords * 8)
				reportRate(b, last)
			})
		}
	}
}

func BenchmarkFig4StrideSweep(b *testing.B) {
	for _, m := range machine.Profiles() {
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				calibrate.StrideSweep(m, []int{2, 8, 32, 64}, benchWords)
			}
		})
	}
}

// --- Tables 2 and 3: send and receive transfers ------------------------

func BenchmarkTable2Send(b *testing.B) {
	for _, m := range machine.Profiles() {
		for _, spec := range []pattern.Spec{pattern.Contig(), pattern.Strided(64), pattern.Indexed()} {
			b.Run(m.Name+"/"+spec.String()+"S0", func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					res, err := xfer.LoadSend(m.NewNode(0), spec, benchWords)
					if err != nil {
						b.Fatal(err)
					}
					last = res.MBps()
				}
				b.SetBytes(benchWords * 8)
				reportRate(b, last)
			})
		}
	}
	// The Paragon's DMA fetch path (1F0).
	b.Run("Intel Paragon/1F0", func(b *testing.B) {
		m := machine.Paragon()
		var last float64
		for i := 0; i < b.N; i++ {
			res, err := xfer.FetchSend(m.NewNode(0), pattern.Contig(), benchWords)
			if err != nil {
				b.Fatal(err)
			}
			last = res.MBps()
		}
		b.SetBytes(benchWords * 8)
		reportRate(b, last)
	})
}

func BenchmarkTable3Receive(b *testing.B) {
	type rc struct {
		name    string
		deposit bool
		w       pattern.Spec
	}
	cases := map[string][]rc{
		"Cray T3D": {
			{"0D1", true, pattern.Contig()},
			{"0D64", true, pattern.Strided(64)},
			{"0Dw", true, pattern.Indexed()},
		},
		"Intel Paragon": {
			{"0R1", false, pattern.Contig()},
			{"0R64", false, pattern.Strided(64)},
			{"0Rw", false, pattern.Indexed()},
			{"0D1", true, pattern.Contig()},
		},
	}
	for _, m := range machine.Profiles() {
		for _, c := range cases[m.Name] {
			b.Run(m.Name+"/"+c.name, func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					var res xfer.Result
					var err error
					if c.deposit {
						res, err = xfer.RecvDeposit(m.NewNode(0), c.w, benchWords)
					} else {
						res, err = xfer.RecvStore(m.NewNode(0), c.w, benchWords)
					}
					if err != nil {
						b.Fatal(err)
					}
					last = res.MBps()
				}
				b.SetBytes(benchWords * 8)
				reportRate(b, last)
			})
		}
	}
}

// --- Table 4: network rates vs congestion ------------------------------

func BenchmarkTable4Network(b *testing.B) {
	t3d := machine.T3D()
	for _, mode := range []netsim.Mode{netsim.DataOnly, netsim.AddrData} {
		for _, cong := range []float64{1, 2, 4} {
			b.Run(mode.String()+"/congestion"+table4Name(cong), func(b *testing.B) {
				net := netsim.MustNewNetwork(t3d.Topo, t3d.Net)
				payload := int64(benchWords * 8)
				var rate float64
				for i := 0; i < b.N; i++ {
					net.Reset()
					done := net.Send(0, 0, 1, payload, mode)
					rate = float64(payload) * 1e3 / float64(done) / cong
				}
				b.SetBytes(payload)
				reportRate(b, rate)
			})
		}
	}
}

func table4Name(c float64) string {
	switch c {
	case 1:
		return "1"
	case 2:
		return "2"
	default:
		return "4"
	}
}

// --- Sections 5.1.x and Figures 7/8: packed vs chained -----------------

func BenchmarkFig7T3D(b *testing.B) { benchPackedVsChained(b, machine.T3D(), true) }

func BenchmarkFig8Paragon(b *testing.B) { benchPackedVsChained(b, machine.Paragon(), false) }

func benchPackedVsChained(b *testing.B, m *machine.Machine, duplex bool) {
	cases := []struct {
		name string
		x, y pattern.Spec
	}{
		{"1Q1", pattern.Contig(), pattern.Contig()},
		{"1Q64", pattern.Contig(), pattern.Strided(64)},
		{"64Q1", pattern.Strided(64), pattern.Contig()},
		{"wQw", pattern.Indexed(), pattern.Indexed()},
	}
	for _, c := range cases {
		for _, style := range []comm.Style{comm.BufferPacking, comm.Chained} {
			b.Run(c.name+"/"+style.String(), func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					res, err := comm.Run(m, style, c.x, c.y,
						comm.Options{Words: benchWords, Duplex: duplex})
					if err != nil {
						b.Fatal(err)
					}
					last = res.MBps()
				}
				b.SetBytes(benchWords * 8)
				reportRate(b, last)
			})
		}
	}
}

// --- Table 5: strided loads vs strided stores --------------------------

func BenchmarkTable5Orientation(b *testing.B) {
	for _, m := range machine.Profiles() {
		for _, c := range []struct {
			name string
			x, y pattern.Spec
		}{
			{"1Q16", pattern.Contig(), pattern.Strided(16)},
			{"16Q1", pattern.Strided(16), pattern.Contig()},
		} {
			b.Run(m.Name+"/"+c.name, func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					res, err := comm.Run(m, comm.Chained, c.x, c.y,
						comm.Options{Words: benchWords, Duplex: !m.CoProcessor})
					if err != nil {
						b.Fatal(err)
					}
					last = res.MBps()
				}
				b.SetBytes(benchWords * 8)
				reportRate(b, last)
			})
		}
	}
}

// --- Table 6 and §6.2: application kernels ------------------------------

func BenchmarkTable6Transpose(b *testing.B) {
	m := machine.T3D()
	const n = 256
	a := make([][]complex128, n)
	for i := range a {
		a[i] = make([]complex128, n)
	}
	for _, style := range []comm.Style{comm.BufferPacking, comm.Chained, comm.PVM} {
		b.Run(style.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				_, rep, err := fft.DistributedTranspose(
					fft.DistConfig{M: m, Style: style, Nodes: 64}, a)
				if err != nil {
					b.Fatal(err)
				}
				last = rep.MBps()
			}
			reportRate(b, last)
		})
	}
}

func BenchmarkTable6FEM(b *testing.B) {
	for _, style := range []comm.Style{comm.BufferPacking, comm.Chained} {
		b.Run(style.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, _, err := fem.SolveValley(fem.Config{
					M: machine.T3D(), Style: style, Parts: 16, Seed: 7,
				}, 16, 16, 6)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Comm.MBps()
			}
			reportRate(b, last)
		})
	}
}

func BenchmarkTable6SOR(b *testing.B) {
	for _, style := range []comm.Style{comm.BufferPacking, comm.Chained} {
		b.Run(style.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := sor.Solve(sor.Config{
					M: machine.T3D(), Style: style, Nodes: 64, MaxIter: 10, Tol: 1e-12,
				}, sor.HotPlate(256))
				if err != nil {
					b.Fatal(err)
				}
				last = res.Comm.MBps()
			}
			reportRate(b, last)
		})
	}
}

// --- Ablations (DESIGN.md §5) ------------------------------------------

// BenchmarkAblationRDAL quantifies the read-ahead unit's contribution to
// contiguous load streams (paper §3.5.1 reports ~60%).
func BenchmarkAblationRDAL(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := machine.T3D().Mem
			cfg.ReadAhead = on
			loads := pattern.NewStream(pattern.Contig(), 0, benchWords)
			var last float64
			for i := 0; i < b.N; i++ {
				mem := memsim.MustNew(cfg)
				last = mem.RunStream(loads, nil, memsim.InterleaveWordwise).MBps()
			}
			b.SetBytes(benchWords * 8)
			reportRate(b, last)
		})
	}
}

// BenchmarkAblationWBQ quantifies the write queue's effect on strided
// stores (the mechanism behind the T3D's 1C64 > 64C1 asymmetry).
func BenchmarkAblationWBQ(b *testing.B) {
	for _, entries := range []int{0, 1, 4, 8} {
		b.Run(wbqName(entries), func(b *testing.B) {
			cfg := machine.T3D().Mem
			cfg.WBQEntries = entries
			stores := pattern.NewStream(pattern.Strided(64), 0, benchWords).ForWrites()
			var last float64
			for i := 0; i < b.N; i++ {
				mem := memsim.MustNew(cfg)
				last = mem.RunStream(nil, stores, memsim.InterleaveWordwise).MBps()
			}
			b.SetBytes(benchWords * 8)
			reportRate(b, last)
		})
	}
}

func wbqName(n int) string {
	return "entries" + string(rune('0'+n))
}

// BenchmarkAblationPFQ quantifies pipelined loads on strided load
// streams (the mechanism behind the Paragon's 64C1 > 1C64 asymmetry).
func BenchmarkAblationPFQ(b *testing.B) {
	for _, depth := range []int{0, 1, 3, 8} {
		b.Run("depth"+string(rune('0'+depth)), func(b *testing.B) {
			cfg := machine.Paragon().Mem
			cfg.PFQDepth = depth
			loads := pattern.NewStream(pattern.Strided(64), 0, benchWords)
			var last float64
			for i := 0; i < b.N; i++ {
				mem := memsim.MustNew(cfg)
				last = mem.RunStream(loads, nil, memsim.InterleaveWordwise).MBps()
			}
			b.SetBytes(benchWords * 8)
			reportRate(b, last)
		})
	}
}

// BenchmarkAblationDeposit contrasts a fully flexible deposit engine
// (T3D annex) against a contiguous-only DMA for the chained strided
// operation — the hardware-design argument of the paper's conclusions.
func BenchmarkAblationDeposit(b *testing.B) {
	flexible := machine.T3D()
	restricted := machine.T3D()
	restricted.Deposit.Strided = false
	restricted.Deposit.Indexed = false
	restricted.CoProcessor = false
	b.Run("flexible", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			res, err := comm.Run(flexible, comm.Chained, pattern.Contig(), pattern.Strided(64),
				comm.Options{Words: benchWords})
			if err != nil {
				b.Fatal(err)
			}
			last = res.MBps()
		}
		reportRate(b, last)
	})
	b.Run("contig-only-fallback", func(b *testing.B) {
		// Without a flexible engine the operation falls back to buffer
		// packing (chaining is impossible).
		var last float64
		for i := 0; i < b.N; i++ {
			res, err := comm.Run(restricted, comm.BufferPacking, pattern.Contig(), pattern.Strided(64),
				comm.Options{Words: benchWords})
			if err != nil {
				b.Fatal(err)
			}
			last = res.MBps()
		}
		reportRate(b, last)
	})
}

// BenchmarkAblationADP quantifies the cost of the address-data-pair
// framing that all 1995 systems used ("compressed" addressing would
// halve the overhead; the paper notes no system implements it).
func BenchmarkAblationADP(b *testing.B) {
	base := machine.T3D()
	compressed := machine.T3D()
	compressed.Net.AddrBytes = 4 // block-compressed addresses
	for _, tc := range []struct {
		name string
		m    *machine.Machine
	}{{"full-pairs", base}, {"compressed", compressed}} {
		b.Run(tc.name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := comm.Run(tc.m, comm.Chained, pattern.Contig(), pattern.Strided(64),
					comm.Options{Words: benchWords})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MBps()
			}
			reportRate(b, last)
		})
	}
}

// BenchmarkModelEvaluate measures the model evaluation itself: parsing
// and evaluating the canonical buffer-packing expression.
func BenchmarkModelEvaluate(b *testing.B) {
	rt := model.PaperT3D()
	e := model.MustParse("wC1 o (1S0 || Nd || 0D1) o 1Cw")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Evaluate(e, rt, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibration measures a full basic-transfer calibration pass.
func BenchmarkCalibration(b *testing.B) {
	m := machine.T3D()
	for i := 0; i < b.N; i++ {
		calibrate.Measure(m, benchWords)
	}
}

// --- Extension benchmarks: put/get, AAPC scheduling, redistributions ---

// BenchmarkExtPutGet reproduces the §3.5 footnote-2 asymmetry.
func BenchmarkExtPutGet(b *testing.B) {
	m := machine.T3D()
	b.Run("put", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			res, err := comm.Run(m, comm.Chained, pattern.Strided(64), pattern.Contig(),
				comm.Options{Words: benchWords})
			if err != nil {
				b.Fatal(err)
			}
			last = res.MBps()
		}
		reportRate(b, last)
	})
	b.Run("get", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			res, err := comm.RunGet(m, comm.Chained, pattern.Strided(64), pattern.Contig(),
				comm.GetOptions{Options: comm.Options{Words: benchWords}})
			if err != nil {
				b.Fatal(err)
			}
			last = res.MBps()
		}
		reportRate(b, last)
	})
}

// BenchmarkExtAAPCSchedule measures schedule generation plus congestion
// analysis for the machine-sized complete exchange.
func BenchmarkExtAAPCSchedule(b *testing.B) {
	m := machine.T3D()
	var last float64
	for i := 0; i < b.N; i++ {
		s, err := aapc.XOR(m.Nodes())
		if err != nil {
			b.Fatal(err)
		}
		last = s.MaxCongestion(m.Topo, m.Net.NodesPerPort)
	}
	b.ReportMetric(last, "congestion")
}

// BenchmarkExtRedistribution prices a BLOCK->CYCLIC redistribution plan.
func BenchmarkExtRedistribution(b *testing.B) {
	m := machine.T3D()
	src, err := distrib.NewBlock(benchWords, 16)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := distrib.NewCyclic(benchWords, 16)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := distrib.Plan(src, dst)
	if err != nil {
		b.Fatal(err)
	}
	for _, style := range []comm.Style{comm.BufferPacking, comm.Chained} {
		b.Run(style.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				rep, err := distrib.Execute(m, plan, distrib.ExecuteOptions{Style: style})
				if err != nil {
					b.Fatal(err)
				}
				last = rep.MBps()
			}
			reportRate(b, last)
		})
	}
}

// BenchmarkAblationWritePolicy contrasts the T3D's write-around + write
// queue against a hypothetical write-back cache for communication-style
// strided store streams. The paper's premise (§3.1) is that temporal
// locality plays only a small role in communication accesses, so the
// write-back cache's reuse advantage cannot materialize — it only adds
// allocate traffic.
func BenchmarkAblationWritePolicy(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy memsim.WritePolicy
	}{
		{"write-around", memsim.WriteAround},
		{"write-back", memsim.WriteBack},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := machine.T3D().Mem
			cfg.Policy = tc.policy
			stores := pattern.NewStream(pattern.Strided(64), 0, benchWords).ForWrites()
			var last float64
			for i := 0; i < b.N; i++ {
				mem := memsim.MustNew(cfg)
				last = mem.RunStream(nil, stores, memsim.InterleaveWordwise).MBps()
			}
			b.SetBytes(benchWords * 8)
			reportRate(b, last)
		})
	}
}

// BenchmarkAblationWarmCache contrasts the cold-cache transfers the
// model is parameterized with against a warm-cache rerun of the same
// small copy. Communication buffers in real applications exceed the
// cache (paper §3.1: "a compiler cannot assume that the local data
// structure on any node fits entirely into the local cache"), which is
// why the cold rates are the right model inputs — warm reruns are much
// faster and would mislead the model.
func BenchmarkAblationWarmCache(b *testing.B) {
	cfg := machine.T3D().Mem
	words := cfg.CacheBytes / 16 // footprint fits the cache
	loads := pattern.NewStream(pattern.Contig(), 0, words)
	b.Run("cold", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			mem := memsim.MustNew(cfg)
			last = mem.RunStream(loads, nil, memsim.InterleaveWordwise).MBps()
		}
		reportRate(b, last)
	})
	b.Run("warm", func(b *testing.B) {
		mem := memsim.MustNew(cfg)
		mem.RunStream(loads, nil, memsim.InterleaveWordwise) // prime
		var last float64
		for i := 0; i < b.N; i++ {
			last = mem.RunStream(loads, nil, memsim.InterleaveWordwise).MBps()
		}
		reportRate(b, last)
	})
}
