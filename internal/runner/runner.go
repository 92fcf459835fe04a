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
// panicking goroutine is the worker's, so the process survives.
type PanicError struct {
	Index int    // job index
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v", e.Index, e.Value)
}

// Collect runs the jobs on a bounded worker pool until one fails, skips
// the jobs not yet started then (recording ErrSkipped and reporting them
// through OnProgress), and returns the values in job order, whatever the
// completion order, alongside the first failure observed (nil when all
// succeed). Values of failed or skipped jobs are zero.
func Collect[R any](cfg Config, jobs []Job[R]) ([]R, error) {
	n := len(jobs)
	out := make([]R, n)
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
	finish := func(i int, v R, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			out[i] = v
		} else if first == nil {
			first = err
		}
		done++
		if cfg.OnProgress != nil {
			cfg.OnProgress(Progress{Index: i, Done: done, Total: n, Err: err})
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
				skip := first != nil
				mu.Unlock()
				if i >= n {
					return
				}
				var v R
				err := ErrSkipped
				if !skip {
					v, err = runOne(i, jobs[i])
				}
				finish(i, v, err)
			}
		}()
	}
	wg.Wait()
	return out, first
}

// runOne executes one job with panic capture.
func runOne[R any](i int, job Job[R]) (v R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Index: i, Value: p, Stack: debug.Stack()}
		}
	}()
	return job()
}
