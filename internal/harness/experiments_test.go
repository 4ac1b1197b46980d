package harness

import (
	"sync"
	"testing"
	"time"
)

// tinyOptions is a two-benchmark grid of a few thousand instructions per
// cell, small enough to run whole experiments twice in one test.
func tinyOptions() Options {
	return Options{
		Warmup:     3_000,
		Measure:    6_000,
		Benchmarks: []string{"kafka", "tomcat"},
	}
}

// TestExperimentsParallelIssueIdentical runs grid experiments on a
// one-slot and a four-slot Runner: concurrent issue may change only
// wall-clock, never a table byte or a memoised metric.
func TestExperimentsParallelIssueIdentical(t *testing.T) {
	ids := []string{"fig10", "fig12", "fig14", "tab4", "tracecheck"}
	o := tinyOptions()
	serial, parallel := NewRunner(1), NewRunner(4)
	for _, id := range ids {
		e, err := ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Run(serial, o)
		if err != nil {
			t.Fatalf("%s on 1 slot: %v", id, err)
		}
		got, err := e.Run(parallel, o)
		if err != nil {
			t.Fatalf("%s on 4 slots: %v", id, err)
		}
		if got != want {
			t.Errorf("%s table differs between 1 and 4 slots:\n--- 1 slot\n%s--- 4 slots\n%s", id, want, got)
		}
	}
	a, b := serial.Results(), parallel.Results()
	if len(a) != len(b) {
		t.Fatalf("memoised results: %d on 1 slot, %d on 4 slots", len(a), len(b))
	}
	for i := range a {
		if ka, kb := a[i].Spec.Key(), b[i].Spec.Key(); ka != kb {
			t.Fatalf("result %d: %s on 1 slot, %s on 4 slots", i, ka, kb)
		}
		if diff := a[i].Metrics.Diff(b[i].Metrics); len(diff) > 0 {
			t.Errorf("%s: %d metrics differ between 1 and 4 slots, first %s", a[i].Spec.Key(), len(diff), diff[0])
		}
	}
}

// TestExperimentsIssueCellsConcurrently proves an experiment keeps more
// than one cell in flight: the first cell to reach the executor blocks
// until a second cell arrives and releases it. A grid issued one cell at
// a time can never release it, and fails at the guard.
func TestExperimentsIssueCellsConcurrently(t *testing.T) {
	r := NewRunner(2)
	release := make(chan struct{})
	var (
		mu       sync.Mutex
		arrivals int
		released bool
	)
	r.SetExecutor(func(s RunSpec) (*RunResult, error) {
		mu.Lock()
		arrivals++
		n := arrivals
		mu.Unlock()
		switch n {
		case 1:
			select {
			case <-release:
				mu.Lock()
				released = true
				mu.Unlock()
			case <-time.After(30 * time.Second):
				t.Error("no second cell arrived while the first was in flight")
			}
		case 2:
			close(release)
		}
		return r.ExecuteJob(s, nil)
	})
	if _, err := Fig10(r, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !released {
		t.Fatal("the first cell was not released by a second concurrent cell")
	}
}
