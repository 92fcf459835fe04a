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
	vals, err := Collect(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if want := fmt.Sprintf("job-%d", i); v != want {
			t.Fatalf("vals[%d] = %q, want %q", i, v, want)
		}
	}
	for k, idx := range completions {
		if want := n - 1 - k; idx != want {
			t.Fatalf("completion order %v, want strictly reversed", completions)
		}
	}
}

// TestPanicIsolation: a panicking job must fail its own slot with a
// PanicError, and every other job either returns its own value or is
// skipped.
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
	errs := make([]error, len(jobs))
	vals, _ := Collect(Config{Workers: 2, OnProgress: func(p Progress) { errs[p.Index] = p.Err }}, jobs)
	var pe *PanicError
	if !errors.As(errs[2], &pe) {
		t.Fatalf("job 2 failed with %v, want *PanicError", errs[2])
	}
	if pe.Index != 2 || pe.Value != "simulated simulation bug" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v", pe)
	}
	for i, v := range vals {
		if i != 2 && !(errs[i] == nil && v == i) && !(errs[i] == ErrSkipped && v == 0) {
			t.Fatalf("job %d: value %d, err %v, want clean %d or skipped", i, v, errs[i], i)
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
	if _, err := Collect(cfg, jobs); err != nil {
		t.Fatal(err)
	}
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
	if got, err := Collect[int](Config{}, nil); len(got) != 0 || err != nil {
		t.Fatalf("Collect(nil) = %v, %v", got, err)
	}
	vals, err := Collect(Config{}, []Job[int]{
		func() (int, error) { return 7, nil },
	})
	if err != nil || len(vals) != 1 || vals[0] != 7 {
		t.Fatalf("Collect = %v, %v", vals, err)
	}
}
