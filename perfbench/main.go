// Command perfbench is the repository's benchmark: it runs one workload
// of the simulator for a fixed time, checks every simulated result
// against a reference, and prints every metric by name with its unit.
// The last line of its output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run re-executes the cells with spans around every
// layer call and reports the per-layer ones. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloadNames = []string{"fig10-cold", "warm-sweep", "fabric-tcp"}

// setups is how many times set-up runs; setup_s is their median.
const setups = 5

// deadline bounds one invocation; a hung pass fails the run instead of
// running on.
const deadline = 170 * time.Second

// record is the stamped result of one invocation, printed before the
// final line so that runs can be compared later (-compare).
type record struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    int               `json:"trace"`
	Passes   int               `json:"passes"`
	Host     hostStamp         `json:"host"`
	Metrics  map[string]metric `json:"metrics"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wl        = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed      = flag.Uint64("seed", 0, "workload seed; 0 keeps the pinned inputs")
		seconds   = flag.Float64("seconds", 25, "how long to measure")
		traceFlag = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out       = flag.String("out", ".bench_build", "directory for scratch stores and span files")
		pins      = flag.String("write-pins", "", "compute the seed-0 references and write them to this file")
		compare   = flag.Bool("compare", false, "compare the records in two files of benchmark output: -compare base head")
	)
	flag.Parse()
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v\n", deadline)
		os.Exit(2)
	})
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two files")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case *pins != "":
		err = writePins(*pins, runtime.NumCPU())
	default:
		var ok bool
		ok, err = run(*wl, *seed, *seconds, *traceFlag == 1, *out)
		if err == nil && !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload and prints its report. It returns false when
// any check failed.
func run(wl string, seed uint64, seconds float64, traced bool, out string) (bool, error) {
	root, err := os.Getwd()
	if err != nil {
		return false, err
	}
	specs, err := specsFor(wl, seed)
	if err != nil {
		return false, err
	}
	work := filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(work)
	b := &bench{workload: wl, nproc: runtime.NumCPU(), shape: shapeFor(wl, seed),
		specs: specs, work: work}

	var setupS, genMS []float64
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		g, err := b.setup(k)
		if err != nil {
			return false, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		genMS = append(genMS, g)
	}
	for _, name := range b.benchmarks() {
		if _, _, err := program(name); err != nil { // fill the program cache
			return false, err
		}
	}

	var passes []*passResult
	start := time.Now()
	for {
		pr, err := b.pass()
		if err != nil {
			return false, fmt.Errorf("pass %d: %w", len(passes)+1, err)
		}
		passes = append(passes, pr)
		if time.Since(start).Seconds()+pr.wall > seconds {
			break
		}
	}

	// Peak memory is read before the reference is computed, so that it
	// covers set-up and the passes only.
	peakRSS := peakRSSMB()
	t0 := time.Now()
	if seed == 0 {
		b.ref, err = pinned(wl)
	} else {
		b.ref, err = computeReference(wl, specs, b.nproc)
	}
	if err != nil {
		return false, fmt.Errorf("reference: %w", err)
	}
	refS := time.Since(t0).Seconds()

	var failures []string
	attempted := 0
	for _, p := range passes {
		attempted += len(b.specs)
		failures = append(failures, b.check(p)...)
	}
	res := result{Metrics: map[string]metric{}}
	var tout *tracedOut
	if traced {
		spans := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", wl, seed))
		if tout, err = b.traced(passes, median(genMS), spans); err != nil {
			return false, fmt.Errorf("traced run: %w", err)
		}
		res.Metrics = tout.metrics
		attempted += tout.attempted
		failures = append(failures, tout.failures...)
	} else {
		res.Metrics = endToEnd(b, passes, setupS, peakRSS)
	}
	res.Attempted, res.Failed = attempted, len(failures)
	res.Correct = len(failures) == 0

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "perfbench %s seed %d: %d cells x %d passes, nproc %d, reference %.2fs\n",
		wl, seed, len(b.specs), len(passes), b.nproc, refS)
	for _, f := range failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	fmt.Fprintf(w, "  %-34s %g\n", "fail_frac", float64(res.Failed)/float64(res.Attempted))
	printMetrics(w, res.Metrics)
	if tout != nil {
		fmt.Fprintf(w, "  layers sum to the untraced cell time (%.1f ms per pass) by construction;"+
			" tracing overhead %.1f ms (%.1f%%); spans in %s\n",
			tout.untraced, tout.overhead, 100*tout.overhead/tout.untraced, filepath.Join(out, "spans-*.json"))
	}
	tr := 0
	if traced {
		tr = 1
	}
	rec, err := json.Marshal(map[string]record{"record": {
		Workload: wl, Seed: seed, Trace: tr, Passes: len(passes), Host: stampHost(root), Metrics: res.Metrics,
	}})
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w, string(rec))
	last, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w, string(last))
	return res.Correct, nil
}

// endToEnd computes the end-to-end metrics from the untraced passes:
// medians over passes, cell latency percentiles over every cell of every
// pass, set-up time as the median of the set-ups, and the process's peak
// resident memory up to the end of the passes.
func endToEnd(b *bench, passes []*passResult, setupS []float64, peakRSS float64) map[string]metric {
	var wall, cpu, alloc, rate, cells []float64
	for _, p := range passes {
		wall = append(wall, p.wall)
		cpu = append(cpu, p.cpu)
		alloc = append(alloc, float64(p.allocBytes)/(1<<20))
		rate = append(rate, float64(p.simInsts(b.shape.Warmup))/p.wall/1e6)
		cells = append(cells, p.cellMS...)
	}
	return map[string]metric{
		"setup_s":         {median(setupS), "s"},
		"grid_wall_s":     {median(wall), "s"},
		"sim_minst_per_s": {median(rate), "Minst/s"},
		"cpu_s":           {median(cpu), "s"},
		"peak_rss_mb":     {peakRSS, "MiB"},
		"alloc_mb":        {median(alloc), "MiB"},
		"cell_p50_ms":     {percentile(cells, 50), "ms"},
		"cell_p90_ms":     {percentile(cells, 90), "ms"},
	}
}

func printMetrics(w *bufio.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if m := ms[n]; m.Unit == "count" {
			fmt.Fprintf(w, "  %-34s %-14.0f %s\n", n, m.Value, m.Unit)
		} else {
			fmt.Fprintf(w, "  %-34s %-14.6g %s\n", n, m.Value, m.Unit)
		}
	}
}

// compareFiles reads the records in two files of benchmark output and
// prints, per workload and metric, each side's median and quartile
// spread and the head/base ratio. It refuses records from different
// hosts.
func compareFiles(basePath, headPath string) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return err
	}
	if len(base) == 0 || len(head) == 0 {
		return fmt.Errorf("no records in %s or %s", basePath, headPath)
	}
	for _, r := range append(base[1:], head...) {
		if err := sameHost(base[0].Host, r.Host); err != nil {
			return fmt.Errorf("refusing to compare records from different hosts: %w", err)
		}
	}
	type key struct {
		workload string
		trace    int
		metric   string
	}
	values := func(rs []record) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range rs {
			for name, v := range r.Metrics {
				k := key{r.Workload, r.Trace, name}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	bv, hv := values(base), values(head)
	var keys []key
	for k := range bv {
		if _, ok := hv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		return a.metric < b.metric
	})
	fmt.Printf("%-12s %-34s %14s %8s %14s %8s %8s\n", "workload", "metric", "base median", "spread", "head median", "spread", "head/base")
	for _, k := range keys {
		b, h := bv[k], hv[k]
		fmt.Printf("%-12s %-34s %14.6g %8.3f %14.6g %8.3f %8.3f\n",
			k.workload, k.metric, median(b), spread(b), median(h), spread(h), median(h)/median(b))
	}
	return nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"record":`) {
			continue
		}
		var r map[string]record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r["record"])
	}
	return out, sc.Err()
}
