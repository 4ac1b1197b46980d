package trace

import (
	"reflect"
	"strings"
	"testing"

	"pdip/internal/checkpoint"
	"pdip/internal/isa"
)

// TestWalkerRestoreRefusesCorruptPositions feeds RestoreCheckpoint states
// that decode fine but name no real walker position. Each must be refused
// with an error naming the offending field, without panicking, and the
// walker must be left exactly as it was.
func TestWalkerRestoreRefusesCorruptPositions(t *testing.T) {
	prog := testProgram(12)
	w := New(prog, 3)
	for i := 0; i < 5000; i++ {
		w.Next()
	}
	good := w.CaptureCheckpoint()
	if good.CurBlock < 0 {
		t.Fatal("oracle walker is lost")
	}
	n := prog.Blocks[good.CurBlock].NumInsts()

	for _, tc := range []struct {
		name, field string
		mutate      func(st *checkpoint.WalkerState)
	}{
		{"block below -1", "CurBlock", func(st *checkpoint.WalkerState) { st.CurBlock = -2 }},
		{"block past end", "CurBlock", func(st *checkpoint.WalkerState) { st.CurBlock = len(prog.Blocks) }},
		{"negative index", "InstIdx", func(st *checkpoint.WalkerState) { st.InstIdx = -1 }},
		{"index past block", "InstIdx", func(st *checkpoint.WalkerState) { st.InstIdx = n }},
		{"index while lost", "InstIdx", func(st *checkpoint.WalkerState) { st.CurBlock, st.InstIdx = -1, 1 }},
		{"stack too deep", "Stack", func(st *checkpoint.WalkerState) {
			st.Stack = make([]isa.Addr, maxCallDepth+1)
		}},
		{"loop counters of another program", "LoopCnt", func(st *checkpoint.WalkerState) {
			st.LoopCnt = make([]uint16, len(prog.Blocks)-1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := w.CaptureCheckpoint()
			tc.mutate(&st)
			before := w.CaptureCheckpoint()
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("RestoreCheckpoint panicked: %v", r)
					}
				}()
				err = w.RestoreCheckpoint(st)
			}()
			if err == nil {
				t.Fatal("corrupt state accepted")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name %s", err, tc.field)
			}
			if after := w.CaptureCheckpoint(); !reflect.DeepEqual(before, after) {
				t.Fatalf("refused restore changed the walker:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}

	// The boundaries themselves are real positions.
	lastInst, lost, deepest := good, good, good
	lastInst.InstIdx = n - 1
	lost.CurBlock, lost.InstIdx = -1, 0
	deepest.Stack = make([]isa.Addr, maxCallDepth)
	for _, st := range []checkpoint.WalkerState{lastInst, lost, deepest} {
		if err := w.RestoreCheckpoint(st); err != nil {
			t.Fatalf("valid state refused: %v", err)
		}
	}
}
