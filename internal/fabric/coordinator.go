package fabric

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"pdip/internal/harness"
	"pdip/internal/metrics"
)

// Config tunes the coordinator's failure handling. The zero value is
// usable: Defaults fills in production-scale settings.
type Config struct {
	// LeaseTimeout bounds how long an assigned job may go without its
	// worker heartbeating before the job is re-queued. Heartbeats renew
	// the lease, so it bounds detection latency, not job duration.
	LeaseTimeout time.Duration
	// SweepEvery is the reaper cadence (lease expiry, matured retries).
	SweepEvery time.Duration
	// MaxAttempts caps assignments per job (first try included) before
	// the job fails the grid permanently.
	MaxAttempts int
	// RetryBackoff delays a failed job's re-queue, scaled linearly by
	// its attempt count. Worker-loss re-queues skip the backoff: the job
	// did nothing wrong.
	RetryBackoff time.Duration
}

// withDefaults normalises unset fields.
func (c Config) withDefaults() Config {
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 60 * time.Second
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff < 0 {
		c.RetryBackoff = 0
	} else if c.RetryBackoff == 0 {
		c.RetryBackoff = 500 * time.Millisecond
	}
	return c
}

// jobState is the lifecycle of one grid cell's job.
type jobState int

const (
	jobPending jobState = iota // queued (possibly held by a warm lease or backoff)
	jobRunning                 // assigned to a worker, lease ticking
	jobDone                    // result merged
	jobFailed                  // attempts exhausted
)

// job is one idempotent unit of work: a RunSpec plus scheduling state.
// Reruns are bit-identical by construction (see Runner.ExecuteJob), so
// any attempt's result is the job's result.
type job struct {
	id    uint64
	spec  harness.RunSpec
	tuple string // warm-state identity ("" = no warmup to share)

	state     jobState
	attempts  int       // assignments so far; Attempt on the wire
	worker    string    // current assignee (state == jobRunning)
	notBefore time.Time // retry backoff gate
	deadline  time.Time // lease expiry, renewed by heartbeats

	// samples accumulates the current attempt's streamed interval
	// snapshots, in stream order; cleared on re-queue.
	samples []metrics.Sample
	result  *harness.RunResult
	err     error
	done    chan struct{}
}

// tupleState tracks cluster-wide warm-once leases: the first job of a
// tuple dispatched becomes the leader and performs the tuple's only real
// warmup (persisting it to the shared checkpoint directory); the tuple's
// other jobs are held until the leader completes, then fork the warm
// state wherever they land.
type tupleState struct {
	warmed bool
	leader uint64 // job id currently leading the warmup, 0 = none
}

// workerConn is the coordinator's view of one connected worker.
type workerConn struct {
	name     string
	w        *wire
	lastSeen time.Time
	tokens   int // outstanding ready offers not yet answered
	inflight map[uint64]bool
	stats    harness.RunnerStats // last reported runner counters
	gone     bool
}

// Stats is the coordinator's aggregate view: job accounting plus the
// summed runner counters of every worker that ever reported.
type Stats struct {
	Cells     uint64 // jobs submitted
	Completed uint64
	Failed    uint64 // permanent failures
	Retries   uint64 // re-queues after a reported job error
	Requeues  uint64 // re-queues after worker loss or lease expiry
	Workers   int    // workers ever connected
	// Runner aggregates every worker's RunnerStats (warmups simulated,
	// disk hits, forks) — the cluster-wide warm-state reuse report.
	Runner harness.RunnerStats
}

// Coordinator owns the job queue of a grid: it expands submissions into
// leased jobs, schedules them over connected workers, re-queues on
// failure or loss, and merges results deterministically by cell key.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	jobs    map[uint64]*job
	byspec  map[harness.RunSpec]*job
	tuples  map[string]*tupleState
	workers map[string]*workerConn
	nextID  uint64
	stats   Stats
	closed  bool
	// listeners opened by ListenAndServe, closed by Close so the accept
	// loops unwind.
	listeners []net.Listener

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator builds a coordinator and starts its reaper.
func NewCoordinator(cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:     cfg.withDefaults(),
		jobs:    make(map[uint64]*job),
		byspec:  make(map[harness.RunSpec]*job),
		tuples:  make(map[string]*tupleState),
		workers: make(map[string]*workerConn),
		stop:    make(chan struct{}),
	}
	c.wg.Add(1)
	//lint:ignore determinism the fabric scheduler sits above the simulated clock: the reaper goroutine expires leases and matures retries host-side and never touches simulation state
	go c.reap()
	return c
}

// now reads the host clock for lease and backoff bookkeeping — the one
// sanctioned wall-clock source in the fabric. Simulation results never
// depend on it: scheduling decides only where and when a job runs, and
// jobs are bit-identical wherever and whenever they run.
func (c *Coordinator) now() time.Time {
	//lint:ignore determinism the fabric sits above the simulated clock: leases, heartbeats, and retry backoff schedule host-side work and cannot influence simulation results
	return time.Now()
}

// reap periodically expires leases of silent workers, re-queues jobs
// whose lease ran out, and re-schedules matured retries.
func (c *Coordinator) reap() {
	defer c.wg.Done()
	//lint:ignore determinism host-side reaper cadence; see Coordinator.now
	tick := time.NewTicker(c.cfg.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.sweep()
		}
	}
}

// sweep is one reaper pass.
func (c *Coordinator) sweep() {
	now := c.now()
	c.mu.Lock()
	// Workers that stopped heartbeating: close their conns; the read
	// loop unwinds and re-queues their in-flight jobs.
	var lost []*workerConn
	for _, w := range c.workers {
		if !w.gone && now.Sub(w.lastSeen) > c.cfg.LeaseTimeout {
			lost = append(lost, w)
		}
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i].name < lost[j].name })
	// Individual jobs whose lease expired (hung worker with a live
	// connection): re-queue just the job; any late result from the old
	// attempt is ignored by the attempt check.
	for _, j := range c.pendingScanLocked(jobRunning) {
		if now.After(j.deadline) {
			c.requeueLocked(j, now, fmt.Errorf("lease expired on worker %s", j.worker))
		}
	}
	asn := c.scheduleLocked(now)
	c.mu.Unlock()

	for _, w := range lost {
		w.w.close()
	}
	c.dispatch(asn)
}

// pendingScanLocked returns the jobs in the given state, id-ordered.
// (Collect-then-sort: map iteration order never escapes.)
func (c *Coordinator) pendingScanLocked(st jobState) []*job {
	var ids []uint64
	for id, j := range c.jobs {
		if j.state == st {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*job, len(ids))
	for i, id := range ids {
		out[i] = c.jobs[id]
	}
	return out
}

// Submit enqueues spec (deduplicating against an already-submitted equal
// spec) and returns a handle to wait on. Safe from any goroutine.
func (c *Coordinator) Submit(spec harness.RunSpec) *Pending {
	now := c.now()
	c.mu.Lock()
	if j, ok := c.byspec[spec]; ok {
		c.mu.Unlock()
		return &Pending{j: j}
	}
	c.nextID++
	j := &job{
		id:    c.nextID,
		spec:  spec,
		tuple: spec.WarmTuple(),
		state: jobPending,
		done:  make(chan struct{}),
	}
	if c.closed {
		j.state = jobFailed
		j.err = errors.New("fabric: coordinator closed")
		close(j.done)
		c.mu.Unlock()
		return &Pending{j: j}
	}
	c.jobs[j.id] = j
	c.byspec[spec] = j
	if j.tuple != "" && c.tuples[j.tuple] == nil {
		c.tuples[j.tuple] = &tupleState{}
	}
	c.stats.Cells++
	asn := c.scheduleLocked(now)
	c.mu.Unlock()
	c.dispatch(asn)
	return &Pending{j: j}
}

// Pending is a submitted job handle.
type Pending struct{ j *job }

// Wait blocks until the job completes (on any worker, any attempt) and
// returns its result.
func (p *Pending) Wait() (*harness.RunResult, error) {
	<-p.j.done
	return p.j.result, p.j.err
}

// RunGrid submits every spec and waits for all of them, returning results
// in spec order. Like Runner.RunAll, failures do not short-circuit: every
// cell's error comes back joined and labelled.
func (c *Coordinator) RunGrid(specs []harness.RunSpec) ([]*harness.RunResult, error) {
	pend := make([]*Pending, len(specs))
	for i, s := range specs {
		pend[i] = c.Submit(s)
	}
	results := make([]*harness.RunResult, len(specs))
	errs := make([]error, len(specs))
	for i, p := range pend {
		res, err := p.Wait()
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", specs[i].Key(), err)
			continue
		}
		results[i] = res
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// assignment pairs a scheduled job with its worker, built under the lock
// and sent outside it (a slow conn must not stall the scheduler).
type assignment struct {
	w *workerConn
	m *message
}

// scheduleLocked matches ready workers with dispatchable jobs. Both sides
// are ordered deterministically (jobs by id, workers by name), so the
// schedule depends only on the event history, never on map order.
func (c *Coordinator) scheduleLocked(now time.Time) []assignment {
	var ready []*workerConn
	for _, w := range c.workers {
		if !w.gone && w.tokens > 0 {
			ready = append(ready, w)
		}
	}
	if len(ready) == 0 {
		return nil
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i].name < ready[j].name })

	var asn []assignment
	wi := 0
	for _, j := range c.pendingScanLocked(jobPending) {
		if wi >= len(ready) {
			break
		}
		if now.Before(j.notBefore) {
			continue
		}
		warmLead := false
		if j.tuple != "" {
			ts := c.tuples[j.tuple]
			if !ts.warmed {
				if ts.leader != 0 && ts.leader != j.id {
					continue // held: tuple is warming elsewhere
				}
				ts.leader = j.id
				warmLead = true
			}
		}
		w := ready[wi]
		j.state = jobRunning
		j.attempts++
		j.worker = w.name
		j.deadline = now.Add(c.cfg.LeaseTimeout)
		j.samples = nil
		w.inflight[j.id] = true
		w.tokens--
		if w.tokens == 0 {
			wi++
		}
		spec := j.spec
		asn = append(asn, assignment{w: w, m: &message{
			Type: msgAssign, JobID: j.id, Attempt: j.attempts,
			Spec: &spec, WarmLead: warmLead,
		}})
	}
	return asn
}

// dispatch sends assignments; a failed send re-queues the job (the read
// loop will also notice the dead conn and unregister the worker).
func (c *Coordinator) dispatch(asn []assignment) {
	for _, a := range asn {
		if err := a.w.w.send(a.m); err != nil {
			now := c.now()
			c.mu.Lock()
			if j := c.jobs[a.m.JobID]; j != nil && j.state == jobRunning && j.worker == a.w.name {
				c.requeueLocked(j, now, fmt.Errorf("send to worker %s: %w", a.w.name, err))
			}
			more := c.scheduleLocked(now)
			c.mu.Unlock()
			c.dispatch(more)
		}
	}
}

// requeueLocked returns a running job to the queue after worker loss or
// lease expiry — no backoff, the job itself did not fail. When attempts
// are exhausted the job fails permanently instead.
func (c *Coordinator) requeueLocked(j *job, now time.Time, cause error) {
	if w := c.workers[j.worker]; w != nil {
		delete(w.inflight, j.id)
	}
	c.releaseTupleLocked(j)
	j.worker = ""
	j.samples = nil
	if j.attempts >= c.cfg.MaxAttempts {
		c.failLocked(j, fmt.Errorf("fabric: %s: attempts exhausted (%d): %w", j.spec.Key(), j.attempts, cause))
		return
	}
	c.stats.Requeues++
	j.state = jobPending
	j.notBefore = now
}

// releaseTupleLocked drops j's warm-leadership, if it held it.
func (c *Coordinator) releaseTupleLocked(j *job) {
	if j.tuple == "" {
		return
	}
	if ts := c.tuples[j.tuple]; ts != nil && ts.leader == j.id {
		ts.leader = 0
	}
}

// failLocked marks a job permanently failed.
func (c *Coordinator) failLocked(j *job, err error) {
	j.state = jobFailed
	j.err = err
	c.releaseTupleLocked(j)
	c.stats.Failed++
	close(j.done)
}

// completeLocked merges a finished job: streamed samples are reattached
// to the result, the warm tuple is marked warmed, and held jobs become
// dispatchable.
func (c *Coordinator) completeLocked(j *job, res *harness.RunResult) {
	j.state = jobDone
	if len(j.samples) > 0 && len(res.Samples) == 0 {
		res.Samples = j.samples
	}
	j.result = res
	j.samples = nil
	if j.tuple != "" {
		ts := c.tuples[j.tuple]
		ts.warmed = true
		if ts.leader == j.id {
			ts.leader = 0
		}
	}
	c.stats.Completed++
	close(j.done)
}

// Serve accepts worker connections until the listener closes.
func (c *Coordinator) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-c.stop:
				return nil
			default:
				return err
			}
		}
		//lint:ignore determinism one host-side goroutine per worker connection; the fabric sits above the simulated clock
		go c.HandleConn(conn)
	}
}

// ListenAndServe listens on addr (TCP) and serves workers. It returns the
// bound listener so callers can learn an ephemeral port; Serve runs on a
// background goroutine.
func (c *Coordinator) ListenAndServe(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: listen %s: %w", addr, err)
	}
	c.mu.Lock()
	c.listeners = append(c.listeners, l)
	c.mu.Unlock()
	c.wg.Add(1)
	//lint:ignore determinism host-side accept loop; the fabric sits above the simulated clock
	go func() {
		defer c.wg.Done()
		c.Serve(l)
	}()
	return l, nil
}

// HandleConn runs the coordinator side of one worker connection: it
// registers the worker at hello, then processes ready/heartbeat/sample/
// done/fail messages until the connection drops, at which point every
// in-flight job of the worker is re-queued.
func (c *Coordinator) HandleConn(conn net.Conn) {
	w := newWire(conn)
	defer w.close()
	hello, err := w.recv()
	if err != nil || hello.Type != msgHello {
		return
	}
	now := c.now()
	c.mu.Lock()
	name := hello.Worker
	if name == "" {
		name = "worker"
	}
	for c.workers[name] != nil && !c.workers[name].gone {
		name += "+"
	}
	if old := c.workers[name]; old != nil {
		// A worker reconnecting under a lost connection's name replaces
		// its entry; keep the lost connection's counters in the total.
		c.stats.Runner.Add(old.stats)
	}
	wc := &workerConn{
		name: name, w: w, lastSeen: now,
		inflight: make(map[uint64]bool),
	}
	c.workers[name] = wc
	c.stats.Workers++
	c.mu.Unlock()

	for {
		m, err := w.recv()
		if err != nil {
			break
		}
		c.handleMessage(wc, m)
	}
	c.workerLost(wc)
}

// handleMessage processes one worker message.
func (c *Coordinator) handleMessage(wc *workerConn, m *message) {
	now := c.now()
	c.mu.Lock()
	wc.lastSeen = now
	if m.Stats != nil {
		wc.stats = *m.Stats
	}
	var asn []assignment
	switch m.Type {
	case msgReady:
		wc.tokens++
		asn = c.scheduleLocked(now)
	case msgHeartbeat:
		// Liveness renews the leases of everything the worker holds.
		for _, j := range c.pendingScanLocked(jobRunning) {
			if j.worker == wc.name {
				j.deadline = now.Add(c.cfg.LeaseTimeout)
			}
		}
	case msgSample:
		if j := c.jobs[m.JobID]; j != nil && j.state == jobRunning &&
			j.worker == wc.name && j.attempts == m.Attempt && m.Sample != nil {
			j.samples = append(j.samples, *m.Sample)
		}
	case msgDone:
		if j := c.jobs[m.JobID]; j != nil && j.state == jobRunning &&
			j.worker == wc.name && j.attempts == m.Attempt && m.Result != nil {
			delete(wc.inflight, j.id)
			c.completeLocked(j, m.Result)
			asn = c.scheduleLocked(now)
		}
	case msgFail:
		if j := c.jobs[m.JobID]; j != nil && j.state == jobRunning &&
			j.worker == wc.name && j.attempts == m.Attempt {
			delete(wc.inflight, j.id)
			cause := errors.New(m.Error)
			if j.attempts >= c.cfg.MaxAttempts {
				c.failLocked(j, fmt.Errorf("fabric: %s: attempts exhausted (%d): %w", j.spec.Key(), j.attempts, cause))
			} else {
				c.stats.Retries++
				c.releaseTupleLocked(j)
				j.state = jobPending
				j.worker = ""
				j.samples = nil
				j.notBefore = now.Add(time.Duration(j.attempts) * c.cfg.RetryBackoff)
			}
			asn = c.scheduleLocked(now)
		}
	}
	c.mu.Unlock()
	c.dispatch(asn)
}

// workerLost unregisters a dropped worker and re-queues its in-flight
// jobs immediately (connection loss is a stronger signal than lease
// expiry, so recovery does not wait for the reaper).
func (c *Coordinator) workerLost(wc *workerConn) {
	now := c.now()
	c.mu.Lock()
	if wc.gone {
		c.mu.Unlock()
		return
	}
	wc.gone = true
	wc.tokens = 0
	var ids []uint64
	for id := range wc.inflight {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if j := c.jobs[id]; j != nil && j.state == jobRunning && j.worker == wc.name {
			c.requeueLocked(j, now, fmt.Errorf("worker %s disconnected", wc.name))
		}
	}
	asn := c.scheduleLocked(now)
	c.mu.Unlock()
	c.dispatch(asn)
}

// Stats returns the coordinator's aggregate accounting, including the
// summed runner counters of every worker — the single programmatic
// warm-state reuse report a distributed run emits once.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	var names []string
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Runner.Add(c.workers[name].stats)
	}
	return s
}

// Close drains connected workers (best effort) and stops the reaper.
// Jobs still pending fail on submission thereafter; in-flight waits
// resolve only if their workers finish before disconnecting.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	var ws []*workerConn
	for _, w := range c.workers {
		if !w.gone {
			ws = append(ws, w)
		}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].name < ws[j].name })
	ls := c.listeners
	c.mu.Unlock()

	close(c.stop)
	for _, l := range ls {
		l.Close()
	}
	for _, w := range ws {
		w.w.send(&message{Type: msgDrain})
		w.w.close()
	}
	c.wg.Wait()
}
