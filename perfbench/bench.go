package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pdip/internal/cfg"
	"pdip/internal/checkpoint"
	"pdip/internal/harness"
	"pdip/internal/workload"
)

// bench is one benchmark invocation: a workload, its seed-derived cells
// and their references, and the scratch directory its checkpoint stores
// live in.
type bench struct {
	workload string
	nproc    int
	shape    shape
	specs    []harness.RunSpec
	ref      reference
	work     string // per-invocation scratch directory
	sweepDir string // warm-sweep's pre-warmed store
	passes   int    // fabric pass counter, for fresh store paths
}

// benchmarks lists the programs a workload simulates.
func (b *bench) benchmarks() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range b.specs {
		if !seen[s.Benchmark] {
			seen[s.Benchmark] = true
			out = append(out, s.Benchmark)
		}
	}
	return out
}

// passResult is what one untraced pass over a workload's cells produced.
type passResult struct {
	wall, cpu  float64 // seconds
	allocBytes uint64
	results    []*harness.RunResult
	cellMS     []float64
	failures   []string
	runner     harness.RunnerStats
	ckptBytes  int64  // bytes in the checkpoint store after the pass
	table      string // fig10-cold only
	// fabric-tcp only
	requeues, retries uint64
	mergeMS           float64
	merged            string // sha256 of the merged document
}

// simInsts counts the instructions the pass simulated: warmups actually
// run plus every measured window.
func (p *passResult) simInsts(warmup uint64) uint64 {
	n := p.runner.Checkpoint.WarmupsExecuted * warmup
	for _, r := range p.results {
		n += r.Metrics.Counters["core.instructions"]
	}
	return n
}

// setup prepares one workload from scratch and returns what it took:
// every program is generated (cfg.Generate), and warm-sweep pre-warms a
// fresh checkpoint store. genMS is the mean cfg.Generate time per program.
func (b *bench) setup(k int) (genMS float64, err error) {
	benches := b.benchmarks()
	var gen time.Duration
	for _, name := range benches {
		prof, err := workload.ByName(name)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = cfg.Generate(prof.CFG)
		gen += time.Since(t0)
		if err != nil {
			return 0, err
		}
	}
	if b.workload == "warm-sweep" {
		dir := filepath.Join(b.work, fmt.Sprintf("sweep-store-%d", k))
		if b.sweepDir != "" {
			if err := os.RemoveAll(b.sweepDir); err != nil {
				return 0, err
			}
		}
		b.sweepDir = dir
		r := harness.NewRunnerWithDir(b.nproc, checkpoint.NewDir(dir, 0))
		var warm []harness.RunSpec
		for _, s := range b.specs {
			w := harness.RunSpec{Benchmark: s.Benchmark, Policy: s.Policy, Warmup: s.Warmup}
			if len(warm) == 0 || warm[len(warm)-1] != w {
				warm = append(warm, w)
			}
		}
		if _, err := r.RunAll(warm); err != nil {
			return 0, err
		}
		if st := r.Stats().Checkpoint; st.DiskStores != uint64(len(warm)) {
			return 0, fmt.Errorf("pre-warm stored %d states, want %d", st.DiskStores, len(warm))
		}
	}
	return ms(gen) / float64(len(benches)), nil
}

// pass runs the workload's cells once, untraced. The results are checked
// against the reference after the last pass (see check).
func (b *bench) pass() (*passResult, error) {
	runtime.GC()
	a0, c0, t0 := allocatedBytes(), cpuSeconds(), time.Now()
	var pr *passResult
	var err error
	var store string
	switch b.workload {
	case "fig10-cold":
		pr, err = b.fig10Pass()
	case "warm-sweep":
		store = b.sweepDir
		pr, err = b.sweepPass()
	case "fabric-tcp":
		b.passes++
		store = filepath.Join(b.work, fmt.Sprintf("fabric-store-%d", b.passes))
		pr, err = fabricPass(b, store, nil)
	}
	if err != nil {
		return nil, err
	}
	pr.wall, pr.cpu, pr.allocBytes = time.Since(t0).Seconds(), cpuSeconds()-c0, allocatedBytes()-a0
	if store != "" {
		pr.ckptBytes = dirBytes(store)
	}
	if b.workload == "fabric-tcp" {
		err = os.RemoveAll(store)
	}
	return pr, err
}

// fig10Pass is one Experiment.Run of fig10 on a fresh runner with no
// checkpoint store. The executor hook only times each cell around the
// runner's own ExecuteJob, the path it takes without a hook.
func (b *bench) fig10Pass() (*passResult, error) {
	pr := &passResult{}
	r := harness.NewRunner(b.nproc)
	var mu sync.Mutex
	r.SetExecutor(func(s harness.RunSpec) (*harness.RunResult, error) {
		t0 := time.Now()
		res, err := r.ExecuteJob(s, nil)
		d := ms(time.Since(t0))
		mu.Lock()
		pr.cellMS = append(pr.cellMS, d)
		mu.Unlock()
		return res, err
	})
	exp, err := harness.ExperimentByID("fig10")
	if err != nil {
		return nil, err
	}
	pr.table, err = exp.Run(r, harness.Options{
		Warmup: b.shape.Warmup, Measure: b.shape.Measure,
		Benchmarks: fig10Benchmarks, Parallelism: b.nproc,
	})
	if err != nil {
		return nil, err
	}
	pr.results = r.Results()
	pr.runner = r.Stats()
	return pr, nil
}

// sweepPass opens a fresh store over the pre-warmed directory and a
// fresh runner over it, and issues every warm variant.
func (b *bench) sweepPass() (*passResult, error) {
	pr := &passResult{}
	r := harness.NewRunnerWithDir(b.nproc, checkpoint.NewDir(b.sweepDir, 0))
	var errs []error
	pr.results, pr.cellMS, errs = issue(b.nproc, b.specs, r.Run)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	pr.runner = r.Stats()
	if w := pr.runner.Checkpoint.WarmupsExecuted; w != 0 {
		pr.failures = append(pr.failures, fmt.Sprintf("warm-sweep simulated %d warmups, want 0", w))
	}
	return pr, nil
}

// check compares a pass with the reference: every cell's digest, and
// the workload's whole-grid outputs. It reports each mismatch, missing
// cell or unexpected cell.
func (b *bench) check(p *passResult) []string {
	bad := append([]string(nil), p.failures...)
	seen := map[string]bool{}
	for _, r := range p.results {
		k := cellKey(r.Spec)
		seen[k] = true
		if want, ok := b.ref.Cells[k]; !ok {
			bad = append(bad, "unexpected cell "+k)
		} else if got := resultDigest(r); got != want {
			bad = append(bad, fmt.Sprintf("cell %s digest %s, reference %s", k, got, want))
		}
	}
	for _, s := range b.specs {
		if k := cellKey(s); !seen[k] {
			bad = append(bad, "missing cell "+k)
		}
	}
	if p.table != b.ref.Table {
		bad = append(bad, fmt.Sprintf("fig10 table differs from reference:\n%s\nwant:\n%s", p.table, b.ref.Table))
	}
	if p.merged != b.ref.Merged {
		bad = append(bad, fmt.Sprintf("merged document sha256 %s, serial reference %s", p.merged, b.ref.Merged))
	}
	sort.Strings(bad)
	return bad
}

// issue runs do over specs from n closed-loop issuers: each issuer takes
// the next cell only after its previous one returned, so at most n cells
// are in flight. It returns results, per-cell latencies in milliseconds
// and errors, all in spec order.
func issue(n int, specs []harness.RunSpec, do func(harness.RunSpec) (*harness.RunResult, error)) ([]*harness.RunResult, []float64, []error) {
	results := make([]*harness.RunResult, len(specs))
	lat := make([]float64, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				t0 := time.Now()
				results[i], errs[i] = do(specs[i])
				lat[i] = ms(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	return results, lat, errs
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
