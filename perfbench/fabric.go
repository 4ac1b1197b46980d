package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pdip/internal/checkpoint"
	"pdip/internal/fabric"
	"pdip/internal/harness"
)

// fabricGrid is fabric-tcp's grid: many short cells with sample
// streaming on, like the smoke grid.
func fabricGrid(s shape) fabric.Grid {
	return fabric.Grid{
		Benchmarks:  sweepBenchmarks,
		Policies:    fabricPolicies,
		Warmup:      s.Warmup,
		Measure:     s.Measure,
		SampleEvery: 10_000,
	}
}

// mergedSHA is the digest of the canonical merged-grid document.
func mergedSHA(results []*harness.RunResult) (string, error) {
	cells, err := fabric.Merge(results)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := fabric.WriteMerged(&buf, cells); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// fabricHooks observes one traced fabric pass: when each cell was
// submitted, when a worker began it (Worker.BeforeJob) and when its
// Pending.Wait returned, plus the bytes crossing the workers' conns.
type fabricHooks struct {
	mu     sync.Mutex
	submit map[harness.RunSpec]time.Time
	begin  map[harness.RunSpec]time.Time
	done   map[harness.RunSpec]time.Time
	wire   atomic.Int64
}

func newFabricHooks() *fabricHooks {
	return &fabricHooks{
		submit: map[harness.RunSpec]time.Time{},
		begin:  map[harness.RunSpec]time.Time{},
		done:   map[harness.RunSpec]time.Time{},
	}
}

func (h *fabricHooks) mark(m map[harness.RunSpec]time.Time, s harness.RunSpec) {
	now := time.Now()
	h.mu.Lock()
	m[s] = now
	h.mu.Unlock()
}

// countingConn counts the bytes read and written on a worker's conn.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// fabricPass runs the grid on a fresh localhost TCP coordinator with
// nproc single-slot workers, each with its own Runner and its own
// checkpoint.Dir over the fresh shared path dir, as separate
// `gridd work` processes would. nproc issuers submit cells one at a
// time and wait for each. hooks, when non-nil, records fabric timings.
func fabricPass(b *bench, dir string, hooks *fabricHooks) (*passResult, error) {
	pr := &passResult{}
	coord := fabric.NewCoordinator(fabric.Config{})
	var workers sync.WaitGroup
	defer func() {
		coord.Close() // drains the workers, which ends each Worker.Run
		workers.Wait()
	}()
	l, err := coord.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := 0; i < b.nproc; i++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, err
		}
		w := &fabric.Worker{
			Name:   fmt.Sprintf("w%d", i+1),
			Runner: harness.NewRunnerWithDir(1, checkpoint.NewDir(dir, 0)),
			Slots:  1,
		}
		if hooks != nil {
			conn = countingConn{Conn: conn, n: &hooks.wire}
			w.BeforeJob = func(s harness.RunSpec) error {
				hooks.mark(hooks.begin, s)
				return nil
			}
		}
		workers.Add(1)
		go func() {
			defer workers.Done()
			if err := w.Run(conn); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: fabric worker:", err)
			}
		}()
	}

	var errs []error
	pr.results, pr.cellMS, errs = issue(b.nproc, b.specs, func(s harness.RunSpec) (*harness.RunResult, error) {
		if hooks != nil {
			hooks.mark(hooks.submit, s)
			defer hooks.mark(hooks.done, s)
		}
		return coord.Submit(s).Wait()
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	t0 := time.Now()
	pr.merged, err = mergedSHA(pr.results)
	pr.mergeMS = ms(time.Since(t0))
	if err != nil {
		return nil, err
	}
	st := coord.Stats()
	pr.runner = st.Runner
	pr.requeues, pr.retries = st.Requeues, st.Retries
	return pr, nil
}

// spans turns the hooks' observations into spans: per cell, a
// fabric.queue span from Submit to BeforeJob and a fabric.job span from
// BeforeJob until Pending.Wait returned.
func (h *fabricHooks) spans(tr *tracer, specs []harness.RunSpec, firstCell int) (queue, job []float64, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, s := range specs {
		sub, ok1 := h.submit[s]
		beg, ok2 := h.begin[s]
		end, ok3 := h.done[s]
		if !ok1 || !ok2 || !ok3 {
			return nil, nil, fmt.Errorf("fabric hooks missed cell %s", cellKey(s))
		}
		root := tr.add(firstCell+i, 0, "fabric.cell", sub, end)
		tr.add(firstCell+i, root, "fabric.queue", sub, beg)
		tr.add(firstCell+i, root, "fabric.job", beg, end)
		queue = append(queue, ms(beg.Sub(sub)))
		job = append(job, ms(end.Sub(beg)))
	}
	return queue, job, nil
}
