package trace

import (
	"reflect"
	"sync"
	"testing"

	"pdip/internal/cfg"
	"pdip/internal/isa"
)

var fuzzProg = sync.OnceValue(func() *cfg.Program { return testProgram(21) })

// paddingAddrs lists addresses inside inter-function alignment padding,
// where a fork starts in lost mode.
func paddingAddrs(prog *cfg.Program) []isa.Addr {
	var out []isa.Addr
	for i := 1; i < len(prog.Blocks); i++ {
		if end := prog.Blocks[i-1].End(); end < prog.Blocks[i].Addr {
			out = append(out, end)
		}
	}
	return out
}

// FuzzWalkerFill checks that batching never changes the stream: a walker
// driven by Fill with a fuzzer-chosen sequence of max values (and of
// already-filled prefixes in dst, with and without spare capacity) must
// produce the same instructions, and end in the same checkpointed state,
// as a twin taking one instruction per Fill(…, 1), also across a
// checkpoint restore halfway through. It covers the oracle walker and
// wrong-path forks at a block, mid-instruction, and in alignment padding
// (lost mode). Every batch must also honour the Fill contract: it appends
// at least one instruction, stops at the first branch, and never passes
// max.
func FuzzWalkerFill(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(0), uint16(100), []byte{16, 16, 16, 1, 2, 3})
	f.Add(uint64(7), uint8(1), uint16(40), uint16(900), []byte{1, 0x35, 8})
	f.Add(uint64(3), uint8(2), uint16(5), uint16(0), []byte{0xf4, 4, 0x21})
	f.Add(uint64(9), uint8(3), uint16(3), uint16(2000), []byte{16})
	f.Fuzz(func(t *testing.T, seed uint64, mode uint8, at, warm uint16, maxes []byte) {
		if len(maxes) == 0 || len(maxes) > 256 {
			t.Skip()
		}
		prog := fuzzProg()
		mk := func() *Walker {
			w := New(prog, seed)
			for i := 0; i < int(warm%4096); i++ {
				w.Next()
			}
			blk := &prog.Blocks[int(at)%len(prog.Blocks)]
			switch mode % 4 {
			case 1:
				return w.Fork(blk.Addr)
			case 2:
				// Mid-instruction: one byte past the block start.
				return w.Fork(blk.Addr + 1)
			case 3:
				pad := paddingAddrs(prog)
				return w.Fork(pad[int(at)%len(pad)])
			}
			return w
		}
		batched, single := mk(), mk()

		var got []isa.Inst
		buf := make([]isa.Inst, 16)
		for i, b := range maxes {
			if i == len(maxes)/2 {
				// Halfway, continue from a restored copy: the running
				// PC must be re-derived exactly from the checkpoint.
				re, err := NewFromCheckpoint(prog, batched.CaptureCheckpoint())
				if err != nil {
					t.Fatal(err)
				}
				batched = re
			}
			max := 1 + int(b&15)
			pre := int(b>>4) % max
			dst := buf[:pre]
			if i%2 == 1 {
				dst = make([]isa.Inst, pre) // no spare capacity: Fill must grow it
			}
			out := batched.Fill(dst, max)
			added := out[pre:]
			if len(added) == 0 || len(out) > max {
				t.Fatalf("Fill(len %d, max %d) appended %d instructions", pre, max, len(added))
			}
			for j, in := range added {
				if in.Kind.IsBranch() && j != len(added)-1 {
					t.Fatalf("Fill ran past the branch at %v", in.PC)
				}
			}
			if last := added[len(added)-1]; !last.Kind.IsBranch() && len(out) != max {
				t.Fatalf("Fill stopped at non-branch %v with room left (%d of %d)", last.PC, len(out), max)
			}
			got = append(got, added...)
		}

		var one [1]isa.Inst
		for i, want := range got {
			if in := single.Fill(one[:0], 1)[0]; in != want {
				t.Fatalf("instruction %d: batched %+v, one-at-a-time %+v", i, want, in)
			}
		}
		if a, b := batched.CaptureCheckpoint(), single.CaptureCheckpoint(); !reflect.DeepEqual(a, b) {
			t.Fatalf("final state differs:\nbatched %+v\nsingle  %+v", a, b)
		}
	})
}
