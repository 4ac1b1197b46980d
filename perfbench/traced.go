package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pdip/internal/checkpoint"
	"pdip/internal/trace"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tracedOut is the traced run's per-layer report plus its own checks.
type tracedOut struct {
	metrics   map[string]metric
	failures  []string
	attempted int
	untraced  float64 // median summed cell time of an untraced pass, ms
	overhead  float64 // tracing overhead, ms
}

// traced re-executes every cell through the public calls with spans
// around each (see mirror), checks the traced cells are bit-identical to
// the reference the untraced cells matched, and splits host time by
// layer. On fabric-tcp it first runs one pass with the fabric hooks on.
// Spans are written to spansPath when it ends.
func (b *bench) traced(passes []*passResult, genMS float64, spansPath string) (*tracedOut, error) {
	out := &tracedOut{metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { out.metrics[name] = metric{v, unit} }
	tr := newTracer()
	n := len(b.specs)

	var m *mirror
	mirrorFirst := 1
	var fabricSelf, mergeMS float64
	var queue, job []float64
	var hookedWall float64
	var hooks *fabricHooks
	switch b.workload {
	case "fig10-cold":
		m = newMirror(tr, warmInMemory, nil)
	case "warm-sweep":
		m = newMirror(tr, warmLoad, checkpoint.NewDir(b.sweepDir, 0))
	case "fabric-tcp":
		hooks = newFabricHooks()
		dir := filepath.Join(b.work, "fabric-store-hooked")
		t0 := time.Now()
		hooked, err := fabricPass(b, dir, hooks)
		hookedWall = time.Since(t0).Seconds()
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
		if err != nil {
			return nil, err
		}
		out.failures = append(out.failures, b.check(hooked)...)
		out.attempted += n
		if queue, job, err = hooks.spans(tr, b.specs, 1); err != nil {
			return nil, err
		}
		mirrorFirst = n + 1
		mdir := filepath.Join(b.work, "fabric-store-traced")
		defer os.RemoveAll(mdir)
		m = newMirror(tr, warmSave, checkpoint.NewDir(mdir, 0))
	}

	digests, err := m.run(b.specs, mirrorFirst)
	if err != nil {
		return nil, err
	}
	out.attempted += n
	for i, d := range digests {
		if k := cellKey(b.specs[i]); d != b.ref.Cells[k] {
			out.failures = append(out.failures, fmt.Sprintf("traced cell %s digest %s, reference %s", k, d, b.ref.Cells[k]))
		}
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}

	var mspans []span
	for _, s := range tr.snapshot() {
		if s.Cell >= mirrorFirst {
			mspans = append(mspans, s)
		}
	}
	layers := layerSelf(mspans)
	tracedCells := sum(durations(mspans, "harness.cell"))
	if hooks != nil {
		fabricSelf = sum(durations(tr.snapshot(), "fabric.cell")) - tracedCells
	}
	var untraced, util, merges []float64
	for _, p := range passes {
		untraced = append(untraced, sum(p.cellMS))
		util = append(util, p.cpu/(p.wall*float64(b.nproc)))
		merges = append(merges, p.mergeMS)
	}
	out.untraced = median(untraced)
	out.overhead = tracedCells + fabricSelf - out.untraced
	harnessSelf := out.untraced - fabricSelf
	for _, l := range []string{"cfg", "core", "checkpoint", "metrics"} {
		put(l+".self_ms", "ms", layers[l])
		harnessSelf -= layers[l]
	}
	put("fabric.self_ms", "ms", fabricSelf)
	put("harness.self_ms", "ms", harnessSelf)
	put("tracing.overhead_ms", "ms", out.overhead)
	put("harness.core_util", "ratio", median(util))

	put("cfg.generate_ms", "ms", genMS)
	runtime.GC() // keep collection of the passes' garbage out of the probe
	walk, err := walkProbe(b.benchmarks())
	if err != nil {
		return nil, err
	}
	put("trace.walk_ns_per_inst", "ns", walk)

	st := m.stats
	warmupMS, measureMS := sum(durations(mspans, "core.warmup")), sum(durations(mspans, "core.measure"))
	put("core.warmup_s", "s", warmupMS/1e3)
	put("core.measure_s", "s", measureMS/1e3)
	coreNS := (warmupMS + measureMS) * 1e6
	put("core.ns_per_inst", "ns", coreNS/float64(st.warmupInsts+st.measureInsts))
	put("core.ns_per_cycle", "ns", coreNS/float64(st.warmupCycles+st.measureCycles))
	perInst := func(pol string) float64 { return st.policyNS[pol] / float64(st.policyInsts[pol]) }
	base := perInst("baseline")
	put("core.ns_per_inst.baseline", "ns", base)
	put("core.ns_per_inst.pdip44", "ns", perInst("pdip44"))
	put("core.ns_per_inst.eip46", "ns", perInst("eip46"))
	put("pdip.host_overhead_frac", "ratio", perInst("pdip44")/base-1)
	put("eip.host_overhead_frac", "ratio", perInst("eip46")/base-1)

	for _, c := range []string{"capture", "save", "load", "restore"} {
		put("checkpoint."+c+"_ms", "ms", meanOrZero(durations(mspans, "checkpoint."+c)))
	}
	enc, err := m.encodeProbe()
	if err != nil {
		return nil, err
	}
	put("checkpoint.encode_ms", "ms", enc)
	dec, err := m.decodeProbe()
	if err != nil {
		return nil, err
	}
	put("checkpoint.decode_ms", "ms", dec)
	put("checkpoint.alloc_mb_per_fork", "MiB", float64(st.forkAllocBytes)/float64(st.forks)/(1<<20))
	put("metrics.snapshot_us", "us", meanOrZero(durations(mspans, "metrics.snapshot"))*1e3)

	if hooks != nil {
		put("fabric.queue_wait_p50_ms", "ms", percentile(queue, 50))
		put("fabric.queue_wait_p90_ms", "ms", percentile(queue, 90))
		put("fabric.job_ms", "ms", median(job))
		put("fabric.wire_kb_per_cell", "KiB", float64(hooks.wire.Load())/1024/float64(n))
		put("fabric.worker_util", "ratio", sum(job)/1e3/(hookedWall*float64(b.nproc)))
		mergeMS = median(merges)
	} else {
		for _, k := range []string{"fabric.queue_wait_p50_ms", "fabric.queue_wait_p90_ms", "fabric.job_ms"} {
			put(k, "ms", 0)
		}
		put("fabric.wire_kb_per_cell", "KiB", 0)
		put("fabric.worker_util", "ratio", 0)
	}
	put("fabric.merge_ms", "ms", mergeMS)

	for name, v := range counts(passes[len(passes)-1]) {
		put(name, "count", float64(v))
	}
	return out, nil
}

// counts are the exact per-pass counts: simulated events summed over the
// cells' snapshots, the runner's activity, store bytes and fabric
// re-queues. They repeat exactly from pass to pass and run to run, and a
// change that only speeds up the simulator leaves them unchanged.
func counts(p *passResult) map[string]uint64 {
	c := map[string]uint64{}
	sumOf := func(names ...string) uint64 {
		var t uint64
		for _, r := range p.results {
			for _, n := range names {
				t += r.Metrics.Counters[n]
			}
		}
		return t
	}
	c["core.sim_insts"] = sumOf("core.instructions")
	c["core.sim_cycles"] = sumOf("core.cycles")
	c["core.wrong_path_insts"] = sumOf("core.wrong_path_instructions")
	c["frontend.resteers"] = sumOf("frontend.resteer.btb_miss", "frontend.resteer.mispredict", "frontend.resteer.return")
	c["bpu.mispredicts"] = sumOf("bpu.cond_mispredict", "bpu.ind_mispredict", "bpu.ret_mispredict")
	c["cache.l1i.accesses"] = sumOf("cache.l1i.accesses")
	c["cache.l2.accesses"] = sumOf("cache.l2.accesses")
	c["pq.issued"] = sumOf("pq.issued")
	c["pdip.lookups"] = sumOf("pdip.lookups")
	c["pdip.inserted"] = sumOf("pdip.inserted")
	c["harness.runs_executed"] = p.runner.RunsExecuted
	c["harness.memo_hits"] = p.runner.CacheHits
	c["harness.warmups_executed"] = p.runner.Checkpoint.WarmupsExecuted
	c["harness.forks"] = p.runner.Checkpoint.Forks
	c["harness.disk_hits"] = p.runner.Checkpoint.DiskHits
	c["harness.disk_stores"] = p.runner.Checkpoint.DiskStores
	c["checkpoint.bytes"] = uint64(p.ckptBytes)
	c["fabric.requeues"] = p.requeues
	c["fabric.retries"] = p.retries
	return c
}

// walkProbe times a standalone trace.Walker over each program and
// returns nanoseconds per instruction.
func walkProbe(benches []string) (float64, error) {
	const insts = 200_000
	var total time.Duration
	for _, name := range benches {
		prog, prof, err := program(name)
		if err != nil {
			return 0, err
		}
		w := trace.New(prog, prof.CFG.Seed^0x5eed)
		t0 := time.Now()
		for i := 0; i < insts; i++ {
			w.Next()
		}
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / float64(insts*len(benches)), nil
}

func meanOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
