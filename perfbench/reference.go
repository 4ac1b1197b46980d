package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"pdip/internal/harness"
)

// reference is what a workload's cells must produce: each cell's digest
// (from harness.Execute, the scratch path with no memoisation or warm
// state reuse), plus fig10-cold's table text and the sha256 of
// fabric-tcp's merged document from a serial Runner.
type reference struct {
	Table  string            `json:"table,omitempty"`
	Merged string            `json:"merged_sha256,omitempty"`
	Cells  map[string]string `json:"cells"`
}

// pinsJSON holds the references of seed 0, written by -write-pins.
//
//go:embed pins.json
var pinsJSON []byte

func pinned(workload string) (reference, error) {
	var pins map[string]reference
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return reference{}, fmt.Errorf("pins.json: %w", err)
	}
	ref, ok := pins[workload]
	if !ok || len(ref.Cells) == 0 {
		return reference{}, fmt.Errorf("pins.json has no reference for %s; run -write-pins", workload)
	}
	return ref, nil
}

// computeReference derives a workload's reference from scratch on nproc
// goroutines.
func computeReference(workload string, specs []harness.RunSpec, nproc int) (reference, error) {
	ref := reference{Cells: map[string]string{}}
	results, _, errs := issue(nproc, specs, harness.Execute)
	if err := errors.Join(errs...); err != nil {
		return ref, err
	}
	bySpec := map[harness.RunSpec]*harness.RunResult{}
	for _, r := range results {
		ref.Cells[cellKey(r.Spec)] = resultDigest(r)
		bySpec[r.Spec] = r
	}
	switch workload {
	case "fig10-cold":
		// The table the experiment prints when every cell comes from the
		// scratch path.
		r := harness.NewRunner(nproc)
		r.SetExecutor(func(s harness.RunSpec) (*harness.RunResult, error) {
			if res, ok := bySpec[s]; ok {
				return res, nil
			}
			return nil, fmt.Errorf("reference has no cell %s", cellKey(s))
		})
		exp, err := harness.ExperimentByID("fig10")
		if err != nil {
			return ref, err
		}
		ref.Table, err = exp.Run(r, harness.Options{
			Warmup: specs[0].Warmup, Measure: specs[0].Measure,
			Benchmarks: fig10Benchmarks, Parallelism: nproc,
		})
		if err != nil {
			return ref, err
		}
	case "fabric-tcp":
		serial, err := harness.NewRunner(nproc).RunAll(specs)
		if err != nil {
			return ref, err
		}
		if ref.Merged, err = mergedSHA(serial); err != nil {
			return ref, err
		}
		// The scratch path must agree with the serial runner cell by cell.
		if other, err := mergedSHA(results); err != nil || other != ref.Merged {
			return ref, fmt.Errorf("serial runner and scratch reference disagree (%v)", err)
		}
	}
	return ref, nil
}

// writePins computes every workload's seed-0 reference and writes them
// to path.
func writePins(path string, nproc int) error {
	pins := map[string]reference{}
	for _, w := range workloadNames {
		specs, err := specsFor(w, 0)
		if err != nil {
			return err
		}
		if pins[w], err = computeReference(w, specs, nproc); err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
