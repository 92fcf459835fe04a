// Command simbench benchmarks the fastsafe simulator itself: the host
// time, CPU, memory and heap allocations it spends per simulated
// millisecond and per simulated DMA, on three protection-policy
// workloads (see workloads.go).
//
// Run it from the repository root through the wrapper, which builds it
// from source first:
//
//	bash simbench/run.sh --workload strict-bulk --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it repeats timed runs of the workload, each in a fresh
// child process, until --seconds have passed, and reports the medians of
// the end-to-end metrics. With --trace 1 it makes one timed run plus a
// traced run that attributes host time per simulated DMA to each
// simulator layer (trace.go, replay.go). Either way it checks that every
// run of the seed produced the same digest of simulated results and that
// no audited DMA was served from a stale translation. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"setup_s": {"value": 0.0021, "unit": "s"}, ...}}
//
// --workload all runs every workload in turn; its metric names then
// carry a "<workload>/" prefix.
//
// metrics.json defines every metric: unit, direction, the end-to-end
// bound, and for each per-layer metric the end-to-end metrics and the
// workload it should move. It also names the held-out seed on which a
// claimed gain is confirmed after the seeds used while making it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// setupReps is how many times each timed run builds and starts its
// workload; the run reports the median and simulates the last one.
const setupReps = 5

// minRuns and maxRuns bound the timed runs of one invocation.
const (
	minRuns = 3
	maxRuns = 40
)

// childTimeout caps one timed run, so a livelocked configuration fails
// the benchmark instead of hanging it.
const childTimeout = 120 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or \"all\"")
		seed    = flag.Int64("seed", 1, "workload seed (host Config.Seed; the fault plan inherits it)")
		seconds = flag.Int("seconds", 30, "host seconds of timed runs per workload")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead")
		out     = flag.String("out", ".bench_build/simbench", "directory for span files")
		child   = flag.Bool("child", false, "internal: make one timed run and print it as JSON")
	)
	flag.Parse()
	if *seed == 0 {
		fail(fmt.Errorf("--seed 0 would alias seed 1 (the simulator's default); use a non-zero seed"))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("--seconds must be at least 1, got %d", *seconds))
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fail(err)
		}
		ws = []*workload{w}
	}
	if *child {
		r := timedRun(ws[0], *seed)
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fail(err)
		}
		return
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		var r result
		if *trace == 1 {
			r = traced(w, *seed, *out)
		} else {
			r = timed(w, *seed, time.Duration(*seconds)*time.Second)
		}
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(ws) > 1 {
				k = w.name + "/" + k
			}
			res.Metrics[k] = v
		}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0 // no run succeeded; correct is false already
			res.Metrics[k] = m
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "simbench:", err)
	os.Exit(2)
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runStats is one timed run, as a child process reports it.
type runStats struct {
	Digest string  `json:"digest"`
	Setup  float64 `json:"setup_s"` // median of the run's set-ups
	SimMs  float64 `json:"sim_ms"`  // simulated ms in the measured window
	Wall   float64 `json:"wall_s"`
	CPU    float64 `json:"cpu_s"`
	DMAs   int64   `json:"dmas"`
	Allocs uint64  `json:"allocs"`
	Bytes  uint64  `json:"bytes"`
	Stale  int64   `json:"stale_served"`
	Err    string  `json:"error,omitempty"`

	PeakRSSMB float64 `json:"-"` // the child's maximum resident set
}

// timedRun builds the workload setupReps times, keeps the last build,
// runs its warm-up and then its measured window with tracing off.
func timedRun(w *workload, seed int64) (r runStats) {
	defer func() {
		if p := recover(); p != nil {
			r.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	var s *system
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if s, err = w.build(seed); err != nil {
			return runStats{Err: err.Error()}
		}
		s.start()
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC() // release the discarded builds before anything is measured
	r.Setup = median(setups)
	s.advance(0, w.warmup)
	a, d0 := readPoint(), s.dmas()
	s.advance(w.warmup, w.warmup+w.measure)
	b, d1 := readPoint(), s.dmas()
	r.SimMs = float64(w.measure) / 1e6
	r.Wall = b.wall.Sub(a.wall).Seconds()
	r.CPU = (b.cpu - a.cpu).Seconds()
	r.DMAs = d1 - d0
	r.Allocs = b.mallocs - a.mallocs
	r.Bytes = b.bytes - a.bytes
	r.Stale = s.staleServed()
	r.Digest = digest(s.reg)
	if r.DMAs <= 0 {
		r.Err = "no DMA completed in the measured window"
	}
	return r
}

// spawn makes one timed run in a fresh child process, so its peak
// resident set belongs to that run alone.
func spawn(w *workload, seed int64) runStats {
	exe, err := os.Executable()
	if err != nil {
		return runStats{Err: err.Error()}
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--child", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return runStats{Err: fmt.Sprintf("child run: %v", err)}
	}
	var r runStats
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return runStats{Err: fmt.Sprintf("child output: %v", err)}
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r
}

// checkRuns fails every run that errored, served a stale DMA, or whose
// digest differs from the digest most runs of the seed agree on; want,
// when non-empty, is a digest the runs must match instead. A failed run
// keeps its reason in Err, so no metric reads it.
func checkRuns(runs []runStats, want string) (ref string, failed []string) {
	ref = want
	if ref == "" {
		count := map[string]int{}
		for _, r := range runs {
			if r.Err == "" {
				count[r.Digest]++
			}
		}
		for d, n := range count {
			if n > count[ref] || (n == count[ref] && d < ref) {
				ref = d
			}
		}
	}
	for i := range runs {
		r := &runs[i]
		switch {
		case r.Err != "":
		case r.Stale != 0:
			r.Err = fmt.Sprintf("%d DMAs served from stale translations", r.Stale)
		case r.Digest != ref:
			r.Err = fmt.Sprintf("digest %s differs from %s", r.Digest, ref)
		default:
			continue
		}
		failed = append(failed, fmt.Sprintf("run %d: %s", i, r.Err))
	}
	return ref, failed
}

// timed repeats timed runs until the budget is spent and reports the
// medians of the end-to-end metrics.
func timed(w *workload, seed int64, budget time.Duration) result {
	start := time.Now()
	var runs []runStats
	for len(runs) < maxRuns && (len(runs) < minRuns || time.Since(start) < budget) {
		runs = append(runs, spawn(w, seed))
	}
	ref, failed := checkRuns(runs, "")
	var simRate, cpu, setup, rss, allocs, bytes []float64
	for _, r := range runs {
		if r.Err != "" {
			continue
		}
		simRate = append(simRate, r.SimMs/r.Wall)
		cpu = append(cpu, r.CPU*1e3/r.SimMs)
		setup = append(setup, r.Setup)
		rss = append(rss, r.PeakRSSMB)
		allocs = append(allocs, float64(r.Allocs)/float64(r.DMAs))
		bytes = append(bytes, float64(r.Bytes)/float64(r.DMAs))
	}
	res := result{
		Correct:   len(failed) == 0,
		Attempted: len(runs),
		Failed:    len(failed),
		Metrics: map[string]metric{
			"sim_ms_per_s":        {median(simRate), "ms/s"},
			"cpu_ms_per_sim_ms":   {median(cpu), "ms/ms"},
			"setup_s":             {median(setup), "s"},
			"peak_rss_mb":         {median(rss), "MB"},
			"allocs_per_dma":      {median(allocs), "allocs/DMA"},
			"alloc_bytes_per_dma": {median(bytes), "B/DMA"},
		},
	}
	report(w, seed, ref, res, failed, endToEnd)
	for i, r := range runs {
		if r.Err == "" {
			fmt.Printf("   run %2d: %8.3f ms/s %8.3f ms/ms %8.5f s %7.2f MB %8.4f allocs/DMA %d stale-served\n",
				i, r.SimMs/r.Wall, r.CPU*1e3/r.SimMs, r.Setup, r.PeakRSSMB, float64(r.Allocs)/float64(r.DMAs), r.Stale)
		}
	}
	return res
}

// report prints a human-readable block for one workload to stdout.
func report(w *workload, seed int64, digest string, r result, failed []string, order []metricDef) {
	fmt.Printf("== %s  seed=%d  digest=%s  failed/attempted=%d/%d  (held-out seed: %d)\n",
		w.name, seed, digest, r.Failed, r.Attempted, heldOutSeed)
	for _, f := range failed {
		fmt.Printf("   FAIL %s\n", f)
		fmt.Fprintf(os.Stderr, "simbench: %s seed %d: %s\n", w.name, seed, f)
	}
	for _, d := range order {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Printf("   %-32s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
}
