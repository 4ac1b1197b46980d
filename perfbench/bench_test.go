package main

import (
	"math"
	"testing"

	"pdip/internal/checkpoint"
	"pdip/internal/harness"
	"pdip/internal/metrics"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{4}, 90); got != 4 {
		t.Errorf("percentile of one value = %v, want 4", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Cell: 1, Name: "harness.cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Cell: 1, Name: "core.warmup", Start: 10, End: 40},
		{ID: 3, Parent: 2, Cell: 1, Name: "checkpoint.capture", Start: 15, End: 20}, // nested
		{ID: 4, Parent: 1, Cell: 1, Name: "core.measure", Start: 30, End: 60},       // overlaps 2
		{ID: 5, Parent: 1, Cell: 1, Name: "metrics.snapshot", Start: 90, End: 120},  // outlives its parent
	}
	self := selfTimes(spans)
	// The parent's children cover [10,60] and [90,100].
	want := map[int]int64{1: 40, 2: 25, 3: 5, 4: 30, 5: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
	layers := layerSelf(spans)
	for l, w := range map[string]float64{"harness": 40e-6, "core": 55e-6, "checkpoint": 5e-6, "metrics": 30e-6} {
		if !near(layers[l], w) {
			t.Errorf("layer %s self %v ms, want %v", l, layers[l], w)
		}
	}
}

func TestDigestCatchesOneCounter(t *testing.T) {
	snap := func() metrics.Snapshot {
		return metrics.Snapshot{
			Counters: map[string]uint64{"core.instructions": 1000, "pdip.inserted": 7},
			Gauges:   map[string]float64{"derived.ipc": 1.25},
		}
	}
	samples := []metrics.Sample{{Instructions: 500, Metrics: snap()}}
	base := digest(snap(), samples)
	if digest(snap(), samples) != base {
		t.Fatal("equal cells digest differently")
	}
	changed := snap()
	changed.Counters["pdip.inserted"]++
	if digest(changed, samples) == base {
		t.Error("one counter changed by one, digest unchanged")
	}
	gauge := snap()
	gauge.Gauges["derived.ipc"] = math.Nextafter(1.25, 2)
	if digest(gauge, samples) == base {
		t.Error("gauge changed in its last bit, digest unchanged")
	}
	inSample := []metrics.Sample{{Instructions: 500, Metrics: changed}}
	if digest(snap(), inSample) == base {
		t.Error("counter changed inside a sample, digest unchanged")
	}
}

// On one small cell, the traced mirror is bit-identical to the untraced
// runner in each of its warm modes.
func TestTracedMirrorMatchesUntraced(t *testing.T) {
	spec := harness.RunSpec{Benchmark: "kafka", Policy: "pdip44", Warmup: 20_000, Measure: 8_000,
		SampleEvery: 4_000, CollectSets: true}
	dir := checkpoint.NewDir(t.TempDir(), 0)
	res, err := harness.NewRunnerWithDir(1, dir).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := resultDigest(res)
	for _, c := range []struct {
		name string
		mode warmMode
		dir  *checkpoint.Dir
	}{
		{"in-memory", warmInMemory, nil},
		{"save", warmSave, checkpoint.NewDir(t.TempDir(), 0)},
		{"load", warmLoad, checkpoint.NewDir(dir.Path(), 0)},
	} {
		tr := newTracer()
		m := newMirror(tr, c.mode, c.dir)
		got, err := m.run([]harness.RunSpec{spec}, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got[0] != want {
			t.Errorf("%s: traced digest %s, untraced %s", c.name, got[0], want)
		}
		if len(tr.snapshot()) < 6 {
			t.Errorf("%s: only %d spans recorded", c.name, len(tr.snapshot()))
		}
	}
}

func TestSeedKeepsWorkPerPass(t *testing.T) {
	for _, w := range workloadNames {
		base := shapeFor(w, 0)
		for seed := uint64(1); seed <= 50; seed++ {
			s := shapeFor(w, seed)
			if s.Warmup == base.Warmup && s.Measure == base.Measure && len(s.Windows) == 0 ||
				len(s.Windows) > 0 && s.Windows[0] == base.Windows[0] {
				t.Fatalf("%s seed %d: inputs unchanged", w, seed)
			}
			if len(s.Windows) > 0 && s.Warmup != base.Warmup {
				t.Fatalf("%s seed %d: warmup %d moved, want %d (it is simulated in set-up)", w, seed, s.Warmup, base.Warmup)
			}
			if s.Warmup+s.Measure != base.Warmup+base.Measure {
				t.Fatalf("%s seed %d: warmup+measure %d, want %d", w, seed, s.Warmup+s.Measure, base.Warmup+base.Measure)
			}
			var got, want uint64
			for i := range s.Windows {
				got += s.Windows[i].Measure
				want += base.Windows[i].Measure
			}
			if got != want {
				t.Fatalf("%s seed %d: windows sum %d, want %d", w, seed, got, want)
			}
		}
	}
}

func TestSameHost(t *testing.T) {
	a := hostStamp{CPU: "x", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Source: "a"}
	b := a
	b.Source, b.Commit = "b", "c" // another commit on the same host compares
	if err := sameHost(a, b); err != nil {
		t.Errorf("same host refused: %v", err)
	}
	b.NProc = 1
	if sameHost(a, b) == nil {
		t.Error("records from hosts with different nproc compared")
	}
}
