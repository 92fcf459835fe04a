// Package runner is the concurrency backbone for experiment sweeps: a
// worker pool that fans independent simulation jobs across CPUs while
// keeping everything callers rely on deterministic.
//
// Each simulation is a self-contained deterministic event loop (its own
// engine, domain, RNG), so a sweep over modes, flow counts, or seeds is
// embarrassingly parallel — the only thing concurrency must not change is
// the *results*. The pool therefore guarantees:
//
//   - results are indexed by job, independent of completion order;
//   - a panicking job fails that job (with its stack), not the process;
//   - Collect stops handing out work once a job fails, and the jobs it
//     never started report ErrSkipped;
//   - a serialised progress callback for long sweeps.
//
// A running job is never preempted: simulations are short (seconds) and
// deterministic, and a failure takes effect at the next job boundary.
package runner

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Job computes one result.
type Job[R any] func() (R, error)

// Result is one job's outcome.
type Result[R any] struct {
	Value R
	Err   error
}

// ErrSkipped is the failure Collect records for a job it never started
// because an earlier one failed.
var ErrSkipped = errors.New("runner: job skipped after an earlier failure")

// Progress describes one finished (or skipped) job. Callbacks are invoked
// serially under the pool's lock, so they need no synchronisation of
// their own.
type Progress struct {
	Index int   // index of the job that just finished
	Done  int   // jobs finished so far, including this one
	Total int   // total jobs in this run
	Err   error // nil on success
}

// Config controls one pool run. The zero value is ready to use.
type Config struct {
	// Workers bounds concurrency; <= 0 means GOMAXPROCS(0).
	Workers int
	// OnProgress, when non-nil, is called once per job as it completes,
	// serially and in completion order.
	OnProgress func(Progress)
}

// PanicError is the failure recorded for a job that panicked. The
// panicking goroutine is the worker's, so the process survives and the
// remaining jobs keep running.
type PanicError struct {
	Index int    // job index
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v", e.Index, e.Value)
}

// All runs every job on a bounded worker pool and returns one Result per
// job, with results[i] holding job i's outcome regardless of completion
// order. Job failures do not stop the run.
func All[R any](cfg Config, jobs []Job[R]) []Result[R] {
	out, _ := run(cfg, jobs, false)
	return out
}

// Collect is the fail-fast variant sweeps use: it runs the jobs until one
// fails, skips the jobs not yet started then (recording ErrSkipped and
// reporting them through OnProgress), and returns the values in job
// order alongside the first failure observed (nil when all succeed).
// Values of failed or skipped jobs are zero.
func Collect[R any](cfg Config, jobs []Job[R]) ([]R, error) {
	results, first := run(cfg, jobs, true)
	out := make([]R, len(results))
	for i, r := range results {
		out[i] = r.Value
	}
	return out, first
}

// run runs the jobs on the pool and returns their results and the first
// failure observed; with failFast, a job handed out after that failure
// is skipped.
func run[R any](cfg Config, jobs []Job[R], failFast bool) ([]Result[R], error) {
	n := len(jobs)
	out := make([]Result[R], n)
	if n == 0 {
		return out, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var mu sync.Mutex // guards next, done, first, out writes, OnProgress
	next, done := 0, 0
	var first error
	finish := func(i int, r Result[R]) {
		mu.Lock()
		defer mu.Unlock()
		out[i] = r
		done++
		if first == nil {
			first = r.Err
		}
		if cfg.OnProgress != nil {
			cfg.OnProgress(Progress{Index: i, Done: done, Total: n, Err: r.Err})
		}
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				skip := failFast && first != nil
				mu.Unlock()
				if i >= n {
					return
				}
				if skip {
					finish(i, Result[R]{Err: ErrSkipped})
					continue
				}
				finish(i, runOne(i, jobs[i]))
			}
		}()
	}
	wg.Wait()
	return out, first
}

// runOne executes one job with panic capture.
func runOne[R any](i int, job Job[R]) (res Result[R]) {
	defer func() {
		if v := recover(); v != nil {
			res = Result[R]{Err: &PanicError{Index: i, Value: v, Stack: debug.Stack()}}
		}
	}()
	v, err := job()
	return Result[R]{Value: v, Err: err}
}
