package cfg_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"pdip/internal/cfg"
	"pdip/internal/isa"
	"pdip/internal/workload"
)

// TestBlockPointerFree pins the program layout's defining property: Block
// and Terminator hold no pointers, so Program.Blocks is a single noscan
// allocation the GC never walks. A slice, map, string or pointer field
// (however deeply nested) fails the test; per-block variable-length data
// belongs in a program-wide column located by offset and count.
func TestBlockPointerFree(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(cfg.Block{}), reflect.TypeOf(cfg.Terminator{})} {
		var walk func(path string, ft reflect.Type)
		walk = func(path string, ft reflect.Type) {
			switch ft.Kind() {
			case reflect.Struct:
				for i := 0; i < ft.NumField(); i++ {
					f := ft.Field(i)
					walk(path+"."+f.Name, f.Type)
				}
			case reflect.Array:
				walk(path+"[]", ft.Elem())
			case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
				reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
				t.Errorf("%s is a %s: cfg.%s must stay pointer-free", path, ft.Kind(), typ.Name())
			}
		}
		walk(typ.Name(), typ)
	}
}

// layoutHash digests every block of prog: ID, function, address,
// instruction sizes, and the whole terminator including indirect targets.
func layoutHash(prog *cfg.Program) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range prog.Blocks {
		b := &prog.Blocks[i]
		put(uint64(b.ID))
		put(uint64(b.Func))
		put(uint64(b.Addr))
		sizes := prog.InstSizes(b)
		put(uint64(len(sizes)))
		h.Write(sizes)
		t := &b.Term
		put(uint64(t.Kind))
		put(uint64(t.TakenBlock))
		put(math.Float64bits(t.TakenProb))
		put(uint64(t.LoopTrip))
		dispatch := uint64(0)
		if t.Dispatch {
			dispatch = 1
		}
		put(dispatch)
		targets := prog.IndTargets(t)
		put(uint64(len(targets)))
		for _, x := range targets {
			put(uint64(x))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLayoutPinned pins generation output: the digests were computed
// before the program moved its sizes and targets into columns, so a match
// proves the columnar layout draws the RNG in the same order and
// generates the same programs. It also checks that each block's stored
// byte size and last instruction agree with its size column.
func TestLayoutPinned(t *testing.T) {
	cassandra, err := workload.ByName("cassandra")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		params cfg.Params
		want   string
	}{
		{"default", cfg.DefaultParams(), "ca9e0d75bf1cb532d453a782265fed25fb859faba9515b114dbcd5416cdf2140"},
		{"cassandra", cassandra.CFG, "708077e189597077a36e565e00c7db8b356bf457cf5836299ad2c3ccd875f7fe"},
	} {
		prog, err := cfg.Generate(tc.params)
		if err != nil {
			t.Fatal(err)
		}
		if got := layoutHash(prog); got != tc.want {
			t.Errorf("%s: layout sha256 %s, want %s", tc.name, got, tc.want)
		}
		for i := range prog.Blocks {
			b := &prog.Blocks[i]
			sizes := prog.InstSizes(b)
			n := 0
			for _, s := range sizes {
				n += int(s)
			}
			if b.NumInsts() != len(sizes) || b.Size() != n ||
				b.LastPC() != b.End()-isa.Addr(sizes[len(sizes)-1]) || b.End() != b.Addr+isa.Addr(n) {
				t.Fatalf("%s: block %d stored sizes disagree with its %d-entry size column", tc.name, i, len(sizes))
			}
		}
	}
}
