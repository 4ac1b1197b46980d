package cache

import (
	"testing"

	"pdip/internal/isa"
)

// FuzzCacheSetVsShadow drives the cache and the executable replacement
// specification (property_test.go's shadowCache) with the same
// fuzzer-chosen operation sequence — accesses, completed fills with and
// without the P-bit, promotions — and fails on the first divergence in
// hit/miss outcome, eviction choice, or priority population. It is the
// fuzz-shaped twin of TestReplacementProperty: the fuzzer hunts for the
// operation orderings the seeded random walks never try.
func FuzzCacheSetVsShadow(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 0, 1})
	f.Add([]byte{1, 0x81, 1, 0x91, 2, 0x81, 0, 0x81, 1, 0xa1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := MustNew(Config{
			Name: "fuzz", SizeBytes: 2 * 1024, Ways: 4,
			HitLatency: 1, MSHRs: 8, ProtectedWays: 2,
		})
		s := newShadow(c)
		now := int64(0)
		for i := 0; i+1 < len(data); i += 2 {
			now++
			op := data[i] % 3
			pri := data[i]&0x80 != 0
			line := isa.Addr(uint64(data[i+1])) * isa.LineSize
			switch op {
			case 0:
				got := c.Access(line, now, ClassInst).Hit
				want := s.access(line)
				if got != want {
					t.Fatalf("op %d: access %#x: cache hit=%v, shadow hit=%v", i, uint64(line), got, want)
				}
			case 1:
				gotEv, gotHad := c.Fill(line, now, now, FillOpts{Priority: pri})
				wantEv, wantHad := s.fill(line, pri)
				if gotHad != wantHad || gotEv != wantEv {
					t.Fatalf("op %d: fill %#x pri=%v: cache evicted (%#x,%v), shadow evicted (%#x,%v)",
						i, uint64(line), pri, uint64(gotEv), gotHad, uint64(wantEv), wantHad)
				}
			case 2:
				c.Promote(line)
				s.promote(line)
			}
			if got, want := c.PriorityLines(), s.priorityLines(); got != want {
				t.Fatalf("op %d: priority population diverged: cache %d, shadow %d", i, got, want)
			}
		}
	})
}

// FuzzCacheCheckpointRoundTrip checks that a restore overwrites every
// column. Caches A and B run different fuzzer-chosen operation sequences
// (applyOp: accesses, fills, prefetch fills, promotions), then A's capture
// is restored into the used cache B. B's capture must equal A's column by
// column, and a shared operation tail must give identical outcomes on B
// and on a fresh cache restored from the same state. The first byte picks
// the geometry: EMISSARY-protected, owner-tracked, or both.
func FuzzCacheCheckpointRoundTrip(f *testing.F) {
	for g := byte(0); g < numGeoms; g++ {
		f.Add(append([]byte{g}, pattern(120, 37, 11)...))
		f.Add(append([]byte{g}, pattern(90, 0x91, 0x42)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		geom := int(data[0]) % numGeoms
		ops := data[1:]
		third := len(ops) / 6 * 2 // an even number of bytes per sequence
		seqA, seqB, tail := ops[:third], ops[third:2*third], ops[2*third:]

		a, b := newCkCache(t, geom), newCkCache(t, geom)
		_, nowA := drive(a, 1, seqA)
		drive(b, 1, seqB)
		st := a.CaptureCheckpoint()
		if err := b.RestoreCheckpoint(st); err != nil {
			t.Fatalf("restore into used cache: %v", err)
		}
		if diff := columnDiff(st, b.CaptureCheckpoint()); len(diff) > 0 {
			t.Fatalf("used cache differs from the restored state in %v", diff)
		}
		fresh := newCkCache(t, geom)
		if err := fresh.RestoreCheckpoint(st); err != nil {
			t.Fatalf("restore into fresh cache: %v", err)
		}
		// Resume where A stopped: the restored state runs on A's clock.
		gotB, _ := drive(b, nowA, tail)
		gotFresh, _ := drive(fresh, nowA, tail)
		for i := range gotB {
			if gotB[i] != gotFresh[i] {
				t.Fatalf("tail op %d (%#x %#x): used cache %+v, fresh cache %+v",
					i, tail[2*i], tail[2*i+1], gotB[i], gotFresh[i])
			}
		}
		if diff := columnDiff(fresh.CaptureCheckpoint(), b.CaptureCheckpoint()); len(diff) > 0 {
			t.Fatalf("after the tail the used and fresh caches differ in %v", diff)
		}
	})
}
