package harness

import (
	"strings"
	"testing"
)

var quickSpec = RunSpec{Benchmark: "kafka", Policy: "baseline", Warmup: 20_000, Measure: 60_000}

func TestExecuteSmoke(t *testing.T) {
	res, err := Execute(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Res.IPC() <= 0 {
		t.Fatal("zero IPC")
	}
	if res.Res.Core.Instructions < quickSpec.Measure {
		t.Fatalf("measured %d instructions, want >= %d", res.Res.Core.Instructions, quickSpec.Measure)
	}
}

func TestExecuteUnknownNames(t *testing.T) {
	if _, err := Execute(RunSpec{Benchmark: "doom", Policy: "baseline"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := Execute(RunSpec{Benchmark: "kafka", Policy: "doom"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(2)
	a, err := r.Run(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical specs not memoised")
	}
}

func TestRunnerRunAll(t *testing.T) {
	r := NewRunner(4)
	specs := []RunSpec{
		quickSpec,
		{Benchmark: "kafka", Policy: "pdip44", Warmup: 20_000, Measure: 60_000},
	}
	out, err := r.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] == nil || out[1] == nil {
		t.Fatal("missing results")
	}
}

func TestRunAllAggregatesFailures(t *testing.T) {
	r := NewRunner(4)
	specs := []RunSpec{
		{Benchmark: "doom", Policy: "baseline"},
		quickSpec,
		{Benchmark: "kafka", Policy: "quake"},
	}
	out, err := r.RunAll(specs)
	if err == nil {
		t.Fatal("RunAll swallowed failing specs")
	}
	if out != nil {
		t.Fatal("partial results returned alongside an error")
	}
	// Both failures survive the join, each labelled with its spec key;
	// the healthy middle spec still ran and is memoised.
	msg := err.Error()
	for _, want := range []string{"doom/baseline", "kafka/quake"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("aggregate error missing %q:\n%s", want, msg)
		}
	}
	if _, ok := r.cache[quickSpec]; !ok {
		t.Fatal("healthy spec not executed when siblings fail")
	}
}

func TestBTBOverride(t *testing.T) {
	small := quickSpec
	small.BTBEntries = 1024
	res, err := Execute(small)
	if err != nil {
		t.Fatal(err)
	}
	if res.Res.BTBKB >= 100 {
		t.Fatalf("BTB override ignored: %.1fKB", res.Res.BTBKB)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e.ID)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"fig1", "fig3", "fig4", "fig9", "fig10", "fig11",
		"tab4", "fig12", "fig13", "tab5", "fig14", "fig15", "fig16", "ablations"} {
		if !ids[want] {
			t.Fatalf("experiment %q missing", want)
		}
	}
	if _, err := ExperimentByID("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func microOptions() Options {
	return Options{
		Warmup:     15_000,
		Measure:    40_000,
		Benchmarks: []string{"kafka", "speedometer2.0"},
	}
}

func TestFig1Runs(t *testing.T) {
	r := NewRunner(0)
	o := microOptions()
	out, err := Fig1(r, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Retiring", "Front-End Bound", "Bad Speculation", "Back-End Bound"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig9Runs(t *testing.T) {
	r := NewRunner(0)
	out, err := Fig9(r, microOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "kafka") || !strings.Contains(out, "average") {
		t.Fatalf("fig9 output:\n%s", out)
	}
}

func TestTab4Runs(t *testing.T) {
	r := NewRunner(0)
	out, err := Tab4(r, microOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "PPKI") || !strings.Contains(out, "Accuracy") {
		t.Fatalf("tab4 output:\n%s", out)
	}
}

func TestTab5Runs(t *testing.T) {
	r := NewRunner(0)
	out, err := Tab5(r, microOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Energy") || !strings.Contains(out, "Area") {
		t.Fatalf("tab5 output:\n%s", out)
	}
}

func TestFig16Runs(t *testing.T) {
	r := NewRunner(0)
	out, err := Fig16(r, microOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mispredict") {
		t.Fatalf("fig16 output:\n%s", out)
	}
}

func TestOptionsHelpers(t *testing.T) {
	var o Options
	if len(o.benchmarks()) != 16 {
		t.Fatalf("default benchmark set %d", len(o.benchmarks()))
	}
	o.Benchmarks = []string{"kafka"}
	if len(o.benchmarks()) != 1 {
		t.Fatal("subset ignored")
	}
	s := o.spec("kafka", "pdip44")
	if s.Benchmark != "kafka" || s.Policy != "pdip44" {
		t.Fatalf("spec %+v", s)
	}
	if DefaultOptions().Measure <= QuickOptions().Measure {
		t.Fatal("default scale not larger than quick scale")
	}
}

func TestRunnerCachesErrors(t *testing.T) {
	r := NewRunner(1)
	bad := RunSpec{Benchmark: "doom", Policy: "baseline"}
	if _, err := r.Run(bad); err == nil {
		t.Fatal("bad spec accepted")
	}
	if _, err := r.Run(bad); err == nil {
		t.Fatal("cached error lost")
	}
}
