// Package frontend models the decoupled front-end (FDIP) of the paper's
// baseline: the instruction address generator (IAG) that walks the
// BPU-predicted stream one basic block per cycle, the fetch target queue
// (FTQ) that decouples prediction from fetch and drives prefetching, and
// the per-line fetch episodes that feed the FEC machinery.
package frontend

import (
	"pdip/internal/bpu"
	"pdip/internal/invariant"
	"pdip/internal/isa"
	"pdip/internal/mem"
	"pdip/internal/trace"
)

// ResteerCause classifies front-end resteers for stats and PDIP triggers.
type ResteerCause uint8

const (
	// ResteerNone means no resteer.
	ResteerNone ResteerCause = iota
	// ResteerMispredict is a conditional direction or indirect target
	// mispredict.
	ResteerMispredict
	// ResteerBTBMiss is a taken branch that was invisible to the IAG.
	ResteerBTBMiss
	// ResteerReturn is a return-target mispredict.
	ResteerReturn
)

func (c ResteerCause) String() string {
	switch c {
	case ResteerMispredict:
		return "mispredict"
	case ResteerBTBMiss:
		return "btb-miss"
	case ResteerReturn:
		return "return"
	default:
		return "none"
	}
}

// LineEpisode is one demand-fetch episode of an instruction cache line:
// the unit the FEC conditions are evaluated over. Episodes are created
// when the IFU issues the demand access and processed once, when the first
// instruction they delivered retires.
type LineEpisode struct {
	// Line is the cache line address.
	Line isa.Addr
	// WrongPath marks episodes created for squashed fetches.
	WrongPath bool
	// Missed reports an L1I demand miss; ServedBy is the filling level.
	Missed   bool
	ServedBy mem.Level
	// FetchCycle is the demand issue cycle; DoneCycle its completion.
	FetchCycle, DoneCycle int64
	// Starve counts decode-starvation cycles attributed to this episode.
	Starve int
	// BackendEmpty records an empty back-end during the starvation.
	BackendEmpty bool
	// WasPrefetch marks a demand access that consumed a prefetched line.
	WasPrefetch bool
	// Processed marks retire-time FEC handling as done.
	Processed bool
	// ResteerTrigger is the trigger block (line) of the most recent
	// resteer when this episode was fetched in its shadow, else 0.
	ResteerTrigger isa.Addr
	// ResteerWasReturn marks return-caused resteer shadows.
	ResteerWasReturn bool
	// Refs counts live Uop references to this episode so the core can
	// recycle episode storage once the last referencing uop retires or is
	// squashed. It is allocator bookkeeping, not simulated state.
	Refs int32
}

// Uop is one instruction flowing through decode, the ROB, and retire.
type Uop struct {
	// Inst is the architectural instruction with its actual outcome.
	Inst isa.Inst
	// Seq is a global fetch-order sequence number.
	Seq uint64
	// WrongPath marks squashed-on-resteer instructions.
	WrongPath bool
	// Ep is the fetch episode of the line this instruction came from.
	Ep *LineEpisode
	// Mispredict marks the (correct-path) branch whose prediction was
	// wrong; resolution triggers the resteer.
	Mispredict bool
	// ResolveAtDecode resolves the resteer at decode (early correction
	// for direct branches missing in the BTB) instead of at execute.
	ResolveAtDecode bool
	// Cause classifies the resteer for stats and trigger selection.
	Cause ResteerCause
	// CorrectTarget is where the front-end must resteer to.
	CorrectTarget isa.Addr
	// TriggerBlock is the block (line) address of the FTQ entry that
	// contained this branch — the PDIP trigger key.
	TriggerBlock isa.Addr
	// IsMemOp marks instructions that access the data hierarchy.
	IsMemOp bool
	// DataLine is the data cache line touched when IsMemOp.
	DataLine isa.Addr
	// DoneAt is the execution-complete cycle, set when entering the ROB.
	DoneAt int64
	// AvailableAt is when the uop leaves the fetch/decode pipe.
	AvailableAt int64
}

// FTQEntry is one predicted basic block in the fetch target queue.
type FTQEntry struct {
	// Insts are the entry's instructions with actual outcomes.
	Insts []isa.Inst
	// Start is the address of the first instruction.
	Start isa.Addr
	// Lines are the distinct cache lines the entry spans (in order).
	Lines []isa.Addr
	// WrongPath marks entries fetched beyond an unresolved mispredict.
	WrongPath bool
	// HasBranch reports whether the entry ends in a branch.
	HasBranch bool
	// Pred is the BPU's prediction for the terminator.
	Pred bpu.Prediction
	// Mispredict, Cause, ResolveAtDecode, CorrectTarget describe the
	// pending resteer when the prediction was wrong (correct path only).
	Mispredict      bool
	Cause           ResteerCause
	ResolveAtDecode bool
	CorrectTarget   isa.Addr

	// ShadowTrigger carries the trigger block of the most recent resteer
	// for correct-path entries inserted before the FTQ refilled (the
	// "wake of a resteer" of §4.2); 0 outside any resteer shadow.
	ShadowTrigger isa.Addr
	// ShadowWasReturn marks return-caused resteer shadows.
	ShadowWasReturn bool

	// Episodes are assigned by the IFU when demand fetch issues, one per
	// line in Lines.
	Episodes []*LineEpisode
	// ReadyAt is when all lines are fetched (set by the IFU).
	ReadyAt int64
}

// FTQ is the fixed-depth fetch target queue.
type FTQ struct {
	entries []*FTQEntry
	head    int
	count   int
}

// NewFTQ returns an FTQ with the given depth (Table 1: 24 entries).
func NewFTQ(depth int) *FTQ {
	if depth <= 0 {
		depth = 24
	}
	return &FTQ{entries: make([]*FTQEntry, depth)}
}

// Len returns the number of queued entries.
func (q *FTQ) Len() int { return q.count }

// Full reports whether the FTQ can accept no more entries.
func (q *FTQ) Full() bool { return q.count == len(q.entries) }

// Depth returns the configured capacity.
func (q *FTQ) Depth() int { return len(q.entries) }

// Push appends an entry; it panics when full (the IAG checks Full first).
func (q *FTQ) Push(e *FTQEntry) {
	if q.Full() {
		panic("frontend: FTQ overflow")
	}
	q.entries[(q.head+q.count)%len(q.entries)] = e
	q.count++
	if invariant.Enabled {
		if q.count < 0 || q.count > len(q.entries) {
			invariant.Failf("FTQ occupancy %d outside [0, %d]", q.count, len(q.entries))
		}
		for _, l := range e.Lines {
			if l.Line() != l {
				invariant.Failf("FTQ entry line %#x is not line-aligned", uint64(l))
			}
		}
	}
}

// Pop removes and returns the oldest entry, or nil when empty.
func (q *FTQ) Pop() *FTQEntry {
	if q.count == 0 {
		return nil
	}
	e := q.entries[q.head]
	q.entries[q.head] = nil
	q.head = (q.head + 1) % len(q.entries)
	q.count--
	return e
}

// Flush discards all entries (front-end resteer).
func (q *FTQ) Flush() {
	for i := range q.entries {
		q.entries[i] = nil
	}
	q.head, q.count = 0, 0
}

// Contains reports whether any queued entry covers line (used to suppress
// duplicate prefetches: targets are checked against the FTQ before
// issuing, §6.2).
func (q *FTQ) Contains(line isa.Addr) bool {
	for i := 0; i < q.count; i++ {
		e := q.entries[(q.head+i)%len(q.entries)]
		for _, l := range e.Lines {
			if l == line {
				return true
			}
		}
	}
	return false
}

// IAG is the instruction address generator: it walks the predicted stream
// one basic block per cycle, consulting the BPU on the correct path and
// following a forked wrong-path source after a mispredict until the
// resteer arrives.
type IAG struct {
	BPU    *bpu.BPU
	oracle trace.OracleSource
	wrong  trace.Source

	// maxEntryInsts caps instructions per FTQ entry.
	maxEntryInsts int

	// pendingMispredict blocks further correct-path tracking until the
	// current mispredict resolves.
	pendingMispredict bool

	// free is the FTQ-entry recycling pool and wrongFree the retired
	// wrong-path source whose storage the next fork reuses. Both are
	// allocator bookkeeping: a recycled entry is bit-identical to a fresh
	// one, and ForkWrong reproduces a fresh fork's stream exactly.
	free      []*FTQEntry
	wrongFree trace.Source
}

// NewIAG builds an IAG over the oracle instruction source (the synthetic
// CFG walker, or a ChampSim trace replay).
func NewIAG(b *bpu.BPU, oracle trace.OracleSource, maxEntryInsts int) *IAG {
	if maxEntryInsts <= 0 {
		maxEntryInsts = 16
	}
	return &IAG{BPU: b, oracle: oracle, maxEntryInsts: maxEntryInsts}
}

// OnWrongPath reports whether the IAG is fetching beyond an unresolved
// mispredict.
func (g *IAG) OnWrongPath() bool { return g.wrong != nil }

// Resteer redirects the IAG back to the correct path. The oracle source is
// already positioned at the resteer target (it stopped advancing when the
// mispredict was detected), so the wrong-path source is simply dropped.
func (g *IAG) Resteer() {
	if g.wrong != nil {
		g.wrongFree = g.wrong
	}
	g.wrong = nil
	g.pendingMispredict = false
}

// Recycle returns a fully drained FTQ entry to the IAG's pool so a later
// NextEntry reuses its storage. The caller must drop every reference to
// the entry and its slices first.
func (g *IAG) Recycle(e *FTQEntry) {
	if e == nil {
		return
	}
	g.free = append(g.free, e)
}

// newEntry pops a pooled entry (resetting it field-for-field to the zero
// entry while keeping slice backing) or allocates a fresh one.
func (g *IAG) newEntry(wrongPath bool) *FTQEntry {
	if n := len(g.free); n > 0 {
		e := g.free[n-1]
		g.free = g.free[:n-1]
		*e = FTQEntry{
			Insts:     e.Insts[:0],
			Lines:     e.Lines[:0],
			Episodes:  e.Episodes[:0],
			WrongPath: wrongPath,
		}
		return e
	}
	//lint:ignore allocfree pool refill when the FTQ entry free list is empty; amortized
	return &FTQEntry{WrongPath: wrongPath}
}

// NextEntry assembles the next FTQ entry from the predicted stream: one
// Fill pulls instructions from the active source up to a branch
// terminator or the entry-size cap, then the IAG predicts the terminator
// on the correct path, and forks a wrong-path source when the prediction
// diverges from the oracle.
func (g *IAG) NextEntry() *FTQEntry {
	var w trace.Source = g.oracle
	if g.wrong != nil {
		w = g.wrong
	}
	//lint:ignore allocfree inlined pool refill (newEntry); amortized once the free list warms
	e := g.newEntry(g.wrong != nil)

	e.Insts = w.Fill(e.Insts, g.maxEntryInsts)
	e.Start = e.Insts[0].PC
	for _, in := range e.Insts {
		ln := in.PC.Line()
		if n := len(e.Lines); n == 0 || e.Lines[n-1] != ln {
			e.Lines = append(e.Lines, ln)
		}
		// Instructions spanning a line boundary touch the next line too.
		if end := in.PC + isa.Addr(in.Size) - 1; end.Line() != ln {
			e.Lines = append(e.Lines, end.Line())
		}
	}
	e.HasBranch = e.Insts[len(e.Insts)-1].Kind.IsBranch()

	if !e.HasBranch || e.WrongPath {
		// Sequential continuation, or wrong-path entry whose outcome the
		// front-end follows directly (nested wrong-path mispredicts are
		// not modelled; the resteer squashes everything anyway).
		return e
	}

	term := e.Insts[len(e.Insts)-1]
	pred := g.BPU.PredictAndTrain(term)
	e.Pred = pred

	predictedNext := term.FallThrough()
	if pred.Taken && pred.Target != 0 {
		predictedNext = pred.Target
	}
	actualNext := term.NextPC()
	if predictedNext == actualNext || g.pendingMispredict {
		return e
	}

	// Prediction diverged: classify the resteer and fork the wrong path.
	e.Mispredict = true
	e.CorrectTarget = actualNext
	switch {
	case !pred.BTBHit && term.Taken:
		e.Cause = ResteerBTBMiss
		// Early correction: decode computes direct targets (and the RAS
		// supplies return targets) without waiting for execute.
		e.ResolveAtDecode = term.Kind == isa.UncondDirect ||
			term.Kind == isa.DirectCall || term.Kind == isa.Return
	case term.Kind == isa.Return:
		e.Cause = ResteerReturn
	default:
		e.Cause = ResteerMispredict
	}
	g.pendingMispredict = true
	g.wrong = g.oracle.ForkWrong(g.wrongFree, predictedNext)
	g.wrongFree = nil
	return e
}
