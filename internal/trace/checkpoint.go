package trace

import (
	"fmt"

	"pdip/internal/cfg"
	"pdip/internal/checkpoint"
	"pdip/internal/isa"
	"pdip/internal/rng"
)

// CaptureCheckpoint captures the walker's position and stream state. The
// program is reconstruction input, not state: the current block is stored
// by ID (-1 when the walker is lost outside any block, and also for a nil
// LoopCnt — wrong-path forks carry no loop counters).
func (w *Walker) CaptureCheckpoint() checkpoint.WalkerState {
	st := checkpoint.WalkerState{
		Rng:            w.r.State(),
		Stack:          append([]isa.Addr(nil), w.stack...),
		CurBlock:       -1,
		InstIdx:        w.instIdx,
		LostPC:         w.lostPC,
		WrongPath:      w.wrongPath,
		DispatchCenter: w.dispatchCenter,
		Count:          w.count,
	}
	if w.loopCnt != nil {
		st.LoopCnt = append([]uint16(nil), w.loopCnt...)
	}
	if w.cur != nil {
		st.CurBlock = w.cur.ID
	}
	return st
}

// RestoreCheckpoint overwrites the walker's position and stream state
// from a captured state, keeping its program. Slices from st are copied,
// never aliased. A state that names no real position — a block out of
// range, an instruction index outside its block (or non-zero while lost),
// a call stack deeper than the walker can build, loop counters for a
// different program — is refused before any field is written, so the
// walker is left unchanged.
func (w *Walker) RestoreCheckpoint(st checkpoint.WalkerState) error {
	nBlocks := len(w.prog.Blocks)
	switch {
	case st.CurBlock < -1 || st.CurBlock >= nBlocks:
		return fmt.Errorf("trace: checkpoint CurBlock %d out of range (program has %d blocks, -1 is lost)", st.CurBlock, nBlocks)
	case st.CurBlock == -1 && st.InstIdx != 0:
		return fmt.Errorf("trace: checkpoint InstIdx %d set on a lost walker (want 0)", st.InstIdx)
	case st.CurBlock >= 0 && (st.InstIdx < 0 || st.InstIdx >= w.prog.Blocks[st.CurBlock].NumInsts()):
		return fmt.Errorf("trace: checkpoint InstIdx %d outside block %d's %d instructions", st.InstIdx, st.CurBlock, w.prog.Blocks[st.CurBlock].NumInsts())
	case len(st.Stack) > maxCallDepth:
		return fmt.Errorf("trace: checkpoint Stack depth %d exceeds the call-depth cap %d", len(st.Stack), maxCallDepth)
	case st.LoopCnt != nil && len(st.LoopCnt) != nBlocks:
		return fmt.Errorf("trace: checkpoint has %d LoopCnt counters, program has %d blocks", len(st.LoopCnt), nBlocks)
	}
	w.r.SetState(st.Rng)
	w.stack = append(w.stack[:0], st.Stack...)
	if st.LoopCnt == nil {
		w.loopCnt = nil
	} else {
		if w.loopCnt == nil {
			w.loopCnt = make([]uint16, len(st.LoopCnt))
		}
		copy(w.loopCnt, st.LoopCnt)
	}
	w.cur, w.instIdx, w.pc = nil, st.InstIdx, 0
	if st.CurBlock >= 0 {
		w.cur = &w.prog.Blocks[st.CurBlock]
		w.pc = w.cur.Addr
		for _, sz := range w.prog.InstSizes(w.cur)[:st.InstIdx] {
			w.pc += isa.Addr(sz)
		}
	}
	w.lostPC = st.LostPC
	w.wrongPath = st.WrongPath
	w.dispatchCenter = st.DispatchCenter
	w.count = st.Count
	return nil
}

// NewFromCheckpoint builds a walker over prog positioned at a captured
// state (used for wrong-path walkers, which have no constructor taking a
// seed).
func NewFromCheckpoint(prog *cfg.Program, st checkpoint.WalkerState) (*Walker, error) {
	w := &Walker{prog: prog, r: rng.New(0)}
	if err := w.RestoreCheckpoint(st); err != nil {
		return nil, err
	}
	return w, nil
}
