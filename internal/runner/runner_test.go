package runner

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestOrderingUnderShuffledCompletion forces jobs to complete in exactly
// reverse submission order (each job waits for the next-indexed job to
// finish first) and asserts results still land at their job's index.
func TestOrderingUnderShuffledCompletion(t *testing.T) {
	const n = 8
	gates := make([]chan struct{}, n)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	var completions []int
	cfg := Config{
		Workers: n, // all jobs in flight at once
		// OnProgress runs after the result is recorded, so closing the
		// gate here guarantees job i-1 sees job i fully completed.
		OnProgress: func(p Progress) {
			completions = append(completions, p.Index)
			close(gates[p.Index])
		},
	}
	jobs := make([]Job[string], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = func() (string, error) {
			if i < n-1 {
				<-gates[i+1] // block until the higher-indexed job completed
			}
			return fmt.Sprintf("job-%d", i), nil
		}
	}
	results := All(cfg, jobs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if want := fmt.Sprintf("job-%d", i); r.Value != want {
			t.Fatalf("results[%d] = %q, want %q", i, r.Value, want)
		}
	}
	for k, idx := range completions {
		if want := n - 1 - k; idx != want {
			t.Fatalf("completion order %v, want strictly reversed", completions)
		}
	}
}

func TestAllRunsEveryJob(t *testing.T) {
	var ran atomic.Int64
	jobs := make([]Job[int], 20)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) { ran.Add(1); return i * i, nil }
	}
	results := All(Config{Workers: 4}, jobs)
	if ran.Load() != 20 {
		t.Fatalf("ran %d jobs, want 20", ran.Load())
	}
	for i, r := range results {
		if r.Value != i*i {
			t.Fatalf("results[%d] = %d", i, r.Value)
		}
	}
}

// TestPanicIsolation: a panicking job must fail its own slot with a
// PanicError and leave every other job untouched.
func TestPanicIsolation(t *testing.T) {
	jobs := make([]Job[int], 5)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) {
			if i == 2 {
				panic("simulated simulation bug")
			}
			return i, nil
		}
	}
	results := All(Config{Workers: 2}, jobs)
	var pe *PanicError
	if !errors.As(results[2].Err, &pe) {
		t.Fatalf("results[2].Err = %v, want *PanicError", results[2].Err)
	}
	if pe.Index != 2 || pe.Value != "simulated simulation bug" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v", pe)
	}
	for i, r := range results {
		if i != 2 && (r.Err != nil || r.Value != i) {
			t.Fatalf("results[%d] = %+v, want clean %d", i, r, i)
		}
	}
}

// TestProgressSerialised: Done must increment by exactly one per callback
// and every index must be reported once.
func TestProgressSerialised(t *testing.T) {
	const n = 32
	seen := make(map[int]bool)
	lastDone := 0
	cfg := Config{Workers: 8, OnProgress: func(p Progress) {
		if p.Done != lastDone+1 || p.Total != n {
			t.Errorf("progress %+v after done=%d", p, lastDone)
		}
		lastDone = p.Done
		if seen[p.Index] {
			t.Errorf("index %d reported twice", p.Index)
		}
		seen[p.Index] = true
	}}
	jobs := make([]Job[struct{}], n)
	for i := range jobs {
		jobs[i] = func() (struct{}, error) { return struct{}{}, nil }
	}
	All(cfg, jobs)
	if len(seen) != n {
		t.Fatalf("reported %d indices, want %d", len(seen), n)
	}
}

// TestCollectFailFast: the first failure is returned, and with one worker
// the jobs after the failing one never run: each reports ErrSkipped.
func TestCollectFailFast(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	jobs := make([]Job[int], 5)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) {
			ran.Add(1)
			if i == 1 {
				return 0, boom
			}
			return i + 10, nil
		}
	}
	errs := make([]error, len(jobs))
	vals, err := Collect(Config{Workers: 1, OnProgress: func(p Progress) { errs[p.Index] = p.Err }}, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran.Load() != 2 {
		t.Fatalf("ran %d jobs, want 2", ran.Load())
	}
	if vals[0] != 10 || vals[1] != 0 {
		t.Fatalf("vals = %v", vals)
	}
	for i := 2; i < len(jobs); i++ {
		if errs[i] != ErrSkipped || vals[i] != 0 {
			t.Fatalf("job %d: err %v, value %d, want ErrSkipped and 0", i, errs[i], vals[i])
		}
	}
}

// TestCollectSuccess returns the values in job order with a nil error.
func TestCollectSuccess(t *testing.T) {
	jobs := make([]Job[int], 10)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) { return i * 3, nil }
	}
	vals, err := Collect(Config{Workers: 4}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != i*3 {
			t.Fatalf("vals[%d] = %d", i, v)
		}
	}
}

// TestCollectPanicBecomesError: Collect surfaces a job panic as its
// returned error rather than crashing or hiding it.
func TestCollectPanicBecomesError(t *testing.T) {
	jobs := []Job[int]{
		func() (int, error) { return 1, nil },
		func() (int, error) { panic("kaboom") },
	}
	_, err := Collect(Config{Workers: 1}, jobs)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 1 {
		t.Fatalf("err = %v, want PanicError{Index: 1}", err)
	}
}

// TestEmptyAndDefaults: zero jobs and the zero Config must both be safe.
func TestEmptyAndDefaults(t *testing.T) {
	if got := All[int](Config{}, nil); len(got) != 0 {
		t.Fatalf("All(nil) = %v", got)
	}
	vals, err := Collect(Config{}, []Job[int]{
		func() (int, error) { return 7, nil },
	})
	if err != nil || len(vals) != 1 || vals[0] != 7 {
		t.Fatalf("Collect = %v, %v", vals, err)
	}
}
