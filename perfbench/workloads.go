package main

import (
	"fmt"
	"math/rand/v2"

	"pdip/internal/harness"
)

// fig10Benchmarks span footprint and block length; fig10Policies are the
// baseline plus Figure 10's six columns, in the experiment's order.
var (
	fig10Benchmarks = []string{"cassandra", "kafka", "tpcc", "verilator"}
	fig10Policies   = []string{"baseline", "eip46", "eip-analytical", "emissary",
		"pdip44", "pdip44+emissary", "pdip44-zerocost"}

	sweepBenchmarks = []string{"cassandra", "tomcat", "kafka", "xalan",
		"tpcc", "ycsb", "verilator", "speedometer2.0"}
	sweepPolicies  = []string{"baseline", "pdip44", "eip46"}
	fabricPolicies = []string{"baseline", "pdip44", "eip46", "emissary"}
)

// shape holds the instruction budgets of one workload. Seed 0 keeps the
// pinned shape. Any other seed moves the warmup/measure boundary by a
// seed-chosen amount while keeping their sum, or on warm-sweep trades
// instructions between pairs of measure windows (its warmup happens in
// set-up), so every cell's inputs and reference change but the work per
// pass and per set-up stays the same.
type shape struct {
	Warmup, Measure uint64
	// Windows are warm-sweep's measure-phase variants per tuple.
	Windows []variant
}

// variant is one measure-phase knob setting forked from a warm tuple.
type variant struct {
	Measure, SampleEvery uint64
	CollectSets          bool
}

func shapeFor(workload string, seed uint64) shape {
	var s shape
	var step uint64 // boundary shift unit
	switch workload {
	case "fig10-cold":
		s, step = shape{Warmup: 30_000, Measure: 100_000}, 2_000
	case "warm-sweep":
		s, step = shape{Warmup: 60_000, Windows: []variant{
			{Measure: 600},
			{Measure: 800, SampleEvery: 200},
			{Measure: 1_000, CollectSets: true},
			{Measure: 1_200, SampleEvery: 400, CollectSets: true},
		}}, 0
	case "fabric-tcp":
		s, step = shape{Warmup: 20_000, Measure: 40_000}, 1_000
	}
	if seed == 0 {
		return s
	}
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	if len(s.Windows) == 0 {
		shift := step * uint64(1+r.IntN(5))
		if r.IntN(2) == 0 {
			s.Warmup, s.Measure = s.Warmup+shift, s.Measure-shift
		} else {
			s.Warmup, s.Measure = s.Warmup-shift, s.Measure+shift
		}
		return s
	}
	// Trade 100-instruction steps between pairs of windows; at least one
	// pair always moves.
	w := append([]variant(nil), s.Windows...)
	for i := 0; i+1 < len(w); i += 2 {
		d := 100 * uint64(1+r.IntN(4))
		if i > 0 {
			d = 100 * uint64(r.IntN(5))
		}
		w[i].Measure += d
		w[i+1].Measure -= d
	}
	s.Windows = w
	return s
}

// specsFor lists a workload's cells in issue order. Warm tuples are
// adjacent so the first cell of a tuple pays for its warm state.
func specsFor(workload string, seed uint64) ([]harness.RunSpec, error) {
	s := shapeFor(workload, seed)
	var specs []harness.RunSpec
	switch workload {
	case "fig10-cold":
		for _, b := range fig10Benchmarks {
			for _, p := range fig10Policies {
				specs = append(specs, harness.RunSpec{Benchmark: b, Policy: p, Warmup: s.Warmup, Measure: s.Measure})
			}
		}
	case "warm-sweep":
		for _, b := range sweepBenchmarks {
			for _, p := range sweepPolicies {
				for _, v := range s.Windows {
					specs = append(specs, harness.RunSpec{Benchmark: b, Policy: p, Warmup: s.Warmup,
						Measure: v.Measure, SampleEvery: v.SampleEvery, CollectSets: v.CollectSets})
				}
			}
		}
	case "fabric-tcp":
		g := fabricGrid(s)
		return g.Specs()
	default:
		return nil, fmt.Errorf("unknown workload %q (known: fig10-cold, warm-sweep, fabric-tcp)", workload)
	}
	return specs, nil
}
