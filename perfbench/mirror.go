package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pdip/internal/cfg"
	"pdip/internal/checkpoint"
	"pdip/internal/core"
	"pdip/internal/harness"
	"pdip/internal/metrics"
	"pdip/internal/policy"
	"pdip/internal/workload"
)

// digest fingerprints a cell's final snapshot and interval samples. Two
// cells share a digest iff every counter, gauge and sample is
// bit-identical (encoding/json sorts map keys and round-trips floats).
func digest(final metrics.Snapshot, samples []metrics.Sample) string {
	b, err := json.Marshal(struct {
		Final   metrics.Snapshot
		Samples []metrics.Sample
	}{final, samples})
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

func resultDigest(r *harness.RunResult) string { return digest(r.Metrics, r.Samples) }

// cellKey names a cell uniquely within a workload: the spec key plus the
// measure-phase knobs Spec.Key leaves out.
func cellKey(s harness.RunSpec) string {
	k := fmt.Sprintf("%s/w%d/m%d", s.Key(), s.Warmup, s.Measure)
	if s.SampleEvery > 0 {
		k += fmt.Sprintf("/s%d", s.SampleEvery)
	}
	if s.CollectSets {
		k += "/sets"
	}
	return k
}

// warmMode says where the traced mirror gets a tuple's warm state, as
// the untraced path does on that workload.
type warmMode int

const (
	warmInMemory warmMode = iota // simulate warmup, capture, fork (no store)
	warmSave                     // simulate warmup, capture, save to the store, fork
	warmLoad                     // load the state the set-up stored, fork
)

// mirrorStats accumulates what the traced mirror saw besides spans.
type mirrorStats struct {
	warmupInsts, warmupCycles   uint64
	measureInsts, measureCycles uint64
	forkAllocBytes              uint64
	forks                       int
	// per-policy core time and instructions (warmup plus measure).
	policyNS    map[string]float64
	policyInsts map[string]uint64
	states      []*checkpoint.State // captured states, for the encode probe
	loadedKeys  []string            // stored keys loaded, for the decode probe
}

// mirror re-executes cells through the simulator's public calls with a
// span around each call: program, config and policy, core.New, warmup
// Run, Snapshot, save or load, NewFromSnapshot, ResetStats, measure Run
// and MetricsSnapshot. Cells run one at a time, so spans never overlap
// and layer self times add up to the traced wall time. Specs of one warm
// tuple must be adjacent: the first pays for the warm state, the rest
// fork it, as the runner's warm-state layer does.
type mirror struct {
	tr    *tracer
	mode  warmMode
	dir   *checkpoint.Dir // warmSave and warmLoad only
	stats mirrorStats
	// st is the warm state of tuple, the warm tuple last produced.
	st    *checkpoint.State
	tuple string
}

func newMirror(tr *tracer, mode warmMode, dir *checkpoint.Dir) *mirror {
	return &mirror{tr: tr, mode: mode, dir: dir, stats: mirrorStats{
		policyNS: map[string]float64{}, policyInsts: map[string]uint64{},
	}}
}

// run mirrors specs and returns each cell's digest. firstCell numbers
// the cells' span ids.
func (m *mirror) run(specs []harness.RunSpec, firstCell int) ([]string, error) {
	out := make([]string, len(specs))
	for i, spec := range specs {
		cell := firstCell + i
		root := m.tr.start(cell, 0, "harness.cell")
		d, err := m.cell(cell, root, spec)
		m.tr.stop(root)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", cellKey(spec), err)
		}
		out[i] = d
	}
	return out, nil
}

func (m *mirror) cell(cell, root int, spec harness.RunSpec) (string, error) {
	id := m.tr.start(cell, root, "cfg.program")
	prog, prof, err := program(spec.Benchmark)
	m.tr.stop(id)
	if err != nil {
		return "", err
	}
	id = m.tr.start(cell, root, "harness.config")
	c, err := config(spec, prof)
	m.tr.stop(id)
	if err != nil {
		return "", err
	}
	if wt := spec.WarmTuple(); m.st == nil || wt != m.tuple {
		if m.st, err = m.warm(cell, root, spec, prog, prof); err != nil {
			return "", err
		}
		m.tuple = wt
	}

	id = m.tr.start(cell, root, "checkpoint.restore")
	a0 := allocatedBytes()
	co, err := core.NewFromSnapshot(prog, c, m.st)
	m.stats.forkAllocBytes += allocatedBytes() - a0
	m.stats.forks++
	m.tr.stop(id)
	if err != nil {
		return "", err
	}
	id = m.tr.start(cell, root, "core.reset")
	co.ResetStats()
	if spec.SampleEvery > 0 {
		co.EnableSampling(spec.SampleEvery)
	}
	m.tr.stop(id)

	i0, c0, t0 := co.Retired(), co.Cycles(), time.Now()
	id = m.tr.start(cell, root, "core.measure")
	err = co.Run(spec.Measure)
	m.tr.stop(id)
	if err != nil {
		return "", err
	}
	m.countCore(spec.Policy, co.Retired()-i0, uint64(co.Cycles()-c0), time.Since(t0), false)

	id = m.tr.start(cell, root, "metrics.snapshot")
	final := co.MetricsSnapshot()
	m.tr.stop(id)
	return digest(final, co.Samples()), nil
}

// warm produces spec's warm state the way the workload's untraced path
// does.
func (m *mirror) warm(cell, root int, spec harness.RunSpec, prog *cfg.Program, prof workload.Profile) (*checkpoint.State, error) {
	// The runner warms with the measure-phase knobs off.
	wspec := spec
	wspec.Measure, wspec.SampleEvery, wspec.CollectSets = 0, 0, false
	wc, err := config(wspec, prof)
	if err != nil {
		return nil, err
	}
	var key string
	if m.mode != warmInMemory {
		if key, err = storeKey(wspec, prof, wc); err != nil {
			return nil, err
		}
	}
	if m.mode == warmLoad {
		id := m.tr.start(cell, root, "checkpoint.load")
		st, _, err := m.dir.Load(key)
		m.tr.stop(id)
		if err != nil {
			return nil, err
		}
		if st == nil {
			return nil, fmt.Errorf("no stored warm state under %s", key)
		}
		m.stats.loadedKeys = append(m.stats.loadedKeys, key)
		return st, nil
	}

	id := m.tr.start(cell, root, "core.new")
	co, err := core.New(prog, wc)
	m.tr.stop(id)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	id = m.tr.start(cell, root, "core.warmup")
	err = co.Run(spec.Warmup)
	m.tr.stop(id)
	if err != nil {
		return nil, err
	}
	m.countCore(spec.Policy, co.Retired(), uint64(co.Cycles()), time.Since(t0), true)

	id = m.tr.start(cell, root, "checkpoint.capture")
	st, err := co.Snapshot()
	m.tr.stop(id)
	if err != nil {
		return nil, err
	}
	m.stats.states = append(m.stats.states, st)
	if m.mode == warmSave {
		id = m.tr.start(cell, root, "checkpoint.save")
		err = m.dir.Save(key, st)
		m.tr.stop(id)
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (m *mirror) countCore(pol string, insts, cycles uint64, d time.Duration, warmup bool) {
	if warmup {
		m.stats.warmupInsts += insts
		m.stats.warmupCycles += cycles
	} else {
		m.stats.measureInsts += insts
		m.stats.measureCycles += cycles
	}
	m.stats.policyNS[pol] += float64(d.Nanoseconds())
	m.stats.policyInsts[pol] += insts
}

// encodeProbe times checkpoint.Encode over every state the mirror
// captured and returns the mean milliseconds per call.
func (m *mirror) encodeProbe() (float64, error) {
	if len(m.stats.states) == 0 {
		return 0, nil
	}
	var buf bytes.Buffer
	var total time.Duration
	for _, st := range m.stats.states {
		buf.Reset()
		t0 := time.Now()
		err := checkpoint.Encode(&buf, st)
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
	}
	return ms(total) / float64(len(m.stats.states)), nil
}

// decodeProbe times checkpoint.DecodeBytes over every stored state the
// mirror loaded and returns the mean milliseconds per call. Dir.Load
// reads and decodes in one call, so this splits decode out of load.
func (m *mirror) decodeProbe() (float64, error) {
	if len(m.stats.loadedKeys) == 0 {
		return 0, nil
	}
	var total time.Duration
	for _, key := range m.stats.loadedKeys {
		b, err := os.ReadFile(filepath.Join(m.dir.Path(), key+".ckpt"))
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = checkpoint.DecodeBytes(b)
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
	}
	return ms(total) / float64(len(m.stats.loadedKeys)), nil
}

func program(bench string) (*cfg.Program, workload.Profile, error) {
	prof, err := workload.ByName(bench)
	if err != nil {
		return nil, prof, err
	}
	prog, err := prof.Program()
	return prog, prof, err
}

// config derives spec's core configuration from the public profile,
// policy and config calls, in the order the harness applies them:
// profile knobs, the BTB override, measure-phase flags, then the
// policy's hook. The mirror's digests must equal the untraced cells',
// which is what keeps this derivation honest.
func config(spec harness.RunSpec, prof workload.Profile) (core.Config, error) {
	pol, err := policy.ByName(spec.Policy)
	if err != nil {
		return core.Config{}, err
	}
	c := core.DefaultConfig()
	c.Seed = prof.CFG.Seed ^ 0x5eed
	if spec.Seed != 0 {
		c.Seed ^= spec.Seed * 0x9e3779b97f4a7c15
	}
	c.MemOpFrac = prof.MemOpFrac
	c.DataHotLines = prof.DataHotLines
	c.DataColdLines = prof.DataColdLines
	c.DataHotFrac = prof.DataHotFrac
	if spec.BTBEntries > 0 {
		c.BPU.BTBEntries = spec.BTBEntries
	}
	c.CollectSets = spec.CollectSets
	c.NoFastForward = spec.NoFastForward
	pol.Apply(&c)
	return c, nil
}

// storeKey is the content address the runner stores wspec's warm state
// under: format version, workload parameters and the derived
// configuration without the prefetcher instance. The warm-sweep mirror
// loads what the runner stored, so a drift here fails as a missing state.
func storeKey(wspec harness.RunSpec, prof workload.Profile, c core.Config) (string, error) {
	c.Prefetcher = nil
	return checkpoint.Key(struct {
		Version   int
		Benchmark string
		Policy    string
		Warmup    uint64
		Workload  cfg.Params
		Config    core.Config
	}{checkpoint.FormatVersion, wspec.Benchmark, wspec.Policy, wspec.Warmup, prof.CFG, c})
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
