// Command fleetbench is the repository's end-to-end benchmark. It boots
// a ctrouter fleet in-process over real loopback listeners (two
// ctserved replicas with one worker each, no service floor, no
// persistence), drives one seeded workload through it, checks every
// answer against the query core, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures; with -trace 1
// the same inputs are replayed one layer at a time (router, replica
// HTTP handler, sweep.Run, query core, comm, xfer, collective,
// calibrate) and the metrics are the per-layer figures, followed by a
// breakdown of each layer's self time.
//
// Workloads:
//
//	point_mix         closed loop, 1 client: eval/price/plan/collective/fit
//	                  point queries, a third of them repeats
//	sweep_price       closed loop, 1 client: kind-price sweeps
//	sweep_collective  closed loop, 1 client: kind-collective sweeps
//
// Every workload reports every end-to-end metric. A request is a point
// query on point_mix and a whole sweep (POST to its done line) on the
// sweep workloads; cold requests are the first of their fingerprint and
// hits the repeats. A latency counts from sending a request to the end
// of its answer; the client sends the next one only then. rows_per_s
// counts correct answer rows, a point answer being one row;
// first_row_p50_ms ends at the first response byte of a point query or
// the first NDJSON row of a sweep. A failed request is left
// out of every latency figure and counted in failed.
//
// Run it from the repository root with fleetbench/run.sh, which builds
// it first: the host stamp hashes the sources under the working
// directory, and traced runs write their spans under .bench_build/.
// `go test` in this directory tests the benchmark itself.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// setupSamples is how many fleets are set up per run for setup_s: one
// in this process and the rest in fresh child processes, so each pays
// calibration from cold.
const setupSamples = 5

var workloads = []string{"point_mix", "sweep_price", "sweep_collective"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	probe := fs.Bool("setup-probe", false, "set up one fleet, print its set-up time and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe {
		f, _, d, err := setUp()
		if err != nil {
			fmt.Fprintln(stderr, "fleetbench:", err)
			return 1
		}
		f.stop()
		fmt.Fprintf(stdout, "setup_s %.9f\n", d.Seconds())
		return 0
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "fleetbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# fleetbench workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Fprintf(out, "# host %s\n", hostStamp("."))
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(out, *workload, *seed, d)
	} else {
		res, err = runE2E(*workload, *seed, d)
	}
	if err != nil {
		out.Flush()
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	res.write(out)
	return 0
}

// result is one run's verdict and figures.
type result struct {
	correct           bool
	attempted, failed int
	digest            string
	notes             []string // printed as comment lines, not metrics
	m                 metrics
}

func (r *result) write(w *bufio.Writer) {
	fmt.Fprintf(w, "# answers: attempted=%d failed=%d correct=%t digest=%s\n", r.attempted, r.failed, r.correct, r.digest)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	r.m.print(w)
	b, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.m})
	if err != nil {
		panic(err) // finite floats and strings always encode
	}
	fmt.Fprintf(w, "%s\n", b)
}

// childSetups sets up n fleets, each in a fresh child process, and
// returns their set-up times in seconds.
func childSetups(n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		b, err := exec.Command(exe, "-setup-probe").Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		v, ok := strings.CutPrefix(strings.TrimSpace(string(b)), "setup_s ")
		s, perr := strconv.ParseFloat(v, 64)
		if !ok || perr != nil {
			return nil, fmt.Errorf("setup probe printed %q", b)
		}
		out = append(out, s)
	}
	return out, nil
}

// runE2E sets the fleet up, runs the workload's measured phase with
// tracing off, checks the answers and computes the end-to-end metrics.
func runE2E(workload string, seed int64, d time.Duration) (*result, error) {
	setups, err := childSetups(setupSamples - 1)
	if err != nil {
		return nil, err
	}
	f, c, own, err := setUp()
	if err != nil {
		return nil, err
	}
	setups = append(setups, own.Seconds())
	m := metrics{}
	m.set("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))

	cpu0 := cpuTime()
	var res *result
	if workload == "point_mix" {
		reqs := genPointMix(seed, int(d.Seconds()*pointMaxRate))
		rs, wall := runClosedLoop(c, f.base, reqs, func(elapsed time.Duration) bool { return elapsed < d })
		cpu, rss := cpuTime()-cpu0, peakRSSMB()
		c.CloseIdleConnections()
		f.stop()
		res = pointMetrics(m, reqs, rs, checkPoint(reqs, rs), wall, cpu, rss)
	} else {
		// Whole blocks until d has elapsed: the block under way at the
		// deadline is finished, so every run measures the same mix.
		rs, wall := runSweeps(c, f.base, workload, seed, func(_ int, elapsed time.Duration) bool { return elapsed < d })
		cpu, rss := cpuTime()-cpu0, peakRSSMB()
		c.CloseIdleConnections()
		f.stop()
		res = sweepMetrics(m, rs, checkSweeps(rs), wall, cpu, rss)
	}
	return res, nil
}

// pointMetrics derives the end-to-end figures of a point_mix run;
// rs answers a prefix of reqs. Failed requests are left out of every
// latency figure and counted in failed.
func pointMetrics(m metrics, reqs []pointReq, rs []pointResult, ck pointCheck, wall, cpu time.Duration, rss float64) *result {
	var all, cold, hit, first []float64
	ok := 0
	for i, r := range rs {
		if ck.failed[i] {
			continue
		}
		ok++
		lat := ms(r.done - r.sent)
		all = append(all, lat)
		if reqs[i].cold(i) {
			cold = append(cold, lat)
		} else {
			hit = append(hit, lat)
		}
		first = append(first, ms(r.first-r.sent))
	}
	m.setLatency("p50_ms", "p99_ms", all)
	m.setLatency("cold_p50_ms", "cold_p99_ms", cold)
	m.setLatency("hit_p50_ms", "hit_p99_ms", hit)
	m.set("first_row_p50_ms", "ms", median(first), fmt.Sprintf("n=%d, send to first response byte", len(first)))
	finish(m, ok, wall, cpu, rss)
	return &result{
		correct: ck.mismatches == 0 && ok > 0, attempted: len(rs), failed: len(rs) - ok,
		digest: fmt.Sprintf("%x", ck.digest[:8]), m: m,
	}
}

// sweepMetrics derives the end-to-end figures of a sweep run. A sweep
// with any failed row is left out of the latency figures; its failed
// rows are counted in failed.
func sweepMetrics(m metrics, rs []sweepResult, ck sweepCheck, wall, cpu time.Duration, rss float64) *result {
	var all, cold, hit, first []float64
	failed := 0
	for i, r := range rs {
		failed += ck.failedRows[i]
		if ck.failedRows[i] > 0 {
			continue
		}
		lat := ms(r.done - r.sent)
		all = append(all, lat)
		if r.req.Repeat {
			hit = append(hit, lat)
		} else {
			cold = append(cold, lat)
		}
		first = append(first, ms(r.first-r.sent))
	}
	m.setLatency("p50_ms", "p99_ms", all)
	m.setLatency("cold_p50_ms", "cold_p99_ms", cold)
	m.setLatency("hit_p50_ms", "hit_p99_ms", hit)
	m.set("first_row_p50_ms", "ms", median(first), fmt.Sprintf("n=%d sweeps", len(first)))
	ok := ck.rows - failed
	finish(m, ok, wall, cpu, rss)
	return &result{
		correct: ck.mismatches == 0 && ok > 0, attempted: ck.rows, failed: failed,
		digest: fmt.Sprintf("%x", ck.digest[:8]), m: m,
	}
}

// finish records the throughput and cost figures shared by every
// workload; ok is the number of correct operations.
func finish(m metrics, ok int, wall, cpu time.Duration, rss float64) {
	m.set("rows_per_s", "rows/s", float64(ok)/wall.Seconds(), fmt.Sprintf("%d rows in %.2fs", ok, wall.Seconds()))
	m.set("cpu_us_per_op", "us", float64(cpu.Microseconds())/float64(max(ok, 1)), fmt.Sprintf("%.2fs CPU", cpu.Seconds()))
	m.set("peak_rss_mb", "MB", rss, "")
}
