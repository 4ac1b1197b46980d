package cache

import (
	"reflect"
	"strings"
	"testing"

	"pdip/internal/checkpoint"
	"pdip/internal/isa"
)

// Geometries the checkpoint tests cover: 8 sets x 4 ways, with EMISSARY
// protection, with owner tracking (a shared uncore level), or both.
const (
	geomProtected = iota
	geomOwners
	geomBoth
	numGeoms
)

// newCkCache builds a fresh cache of the given geometry.
func newCkCache(t testing.TB, geom int) *Cache {
	t.Helper()
	cfg := Config{Name: "ck", SizeBytes: 2 * 1024, Ways: 4, HitLatency: 2, MSHRs: 8}
	if geom != geomOwners {
		cfg.ProtectedWays = 2
	}
	c := MustNew(cfg)
	if geom != geomProtected {
		if err := c.EnableOwnerTracking(2, 2); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// opOutcome is everything one operation reports to its caller.
type opOutcome struct {
	res       LookupResult
	evicted   isa.Addr
	hadVictim bool
	issued    bool
}

// applyOp runs one two-byte operation on c at cycle now. The low two bits
// of op pick a demand access, a fill, a prefetch fill or a promotion; bit
// 2 sets the P-bit, bit 3 picks the owner, and the high nibble is the fill
// latency in 4-cycle steps. arg picks one of 256 lines, about eight times
// the cache's capacity. A fill that has no MSHR for its owner is skipped,
// as the port chain would skip it.
func applyOp(c *Cache, now int64, op, arg byte) opOutcome {
	line := isa.Addr(arg) * isa.LineSize
	owner := op >> 3 & 1
	switch op & 3 {
	case 0:
		return opOutcome{res: c.Access(line, now, ClassInst)}
	case 3:
		c.Promote(line)
		return opOutcome{}
	}
	readyAt := now + int64(op>>4)*4
	if readyAt > now && !c.OwnerCanIssue(now, int(owner)) {
		return opOutcome{}
	}
	ev, had := c.Fill(line, now, readyAt, FillOpts{Prefetch: op&3 == 2, Priority: op&4 != 0, Owner: owner})
	return opOutcome{evicted: ev, hadVictim: had, issued: true}
}

// drive applies ops (pairs of bytes) to c, one per cycle from start, and
// returns every outcome and the cycle after the last op.
func drive(c *Cache, start int64, ops []byte) ([]opOutcome, int64) {
	var out []opOutcome
	now := start
	for i := 0; i+1 < len(ops); i += 2 {
		out = append(out, applyOp(c, now, ops[i], ops[i+1]))
		now++
	}
	return out, now
}

// columnDiff names the CacheState fields on which a and b differ.
func columnDiff(a, b checkpoint.CacheState) []string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var diff []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			diff = append(diff, va.Type().Field(i).Name)
		}
	}
	return diff
}

// pattern returns n op bytes from a fixed multiplicative sequence.
func pattern(n int, mul, add byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*mul + add
	}
	return b
}

// TestRestoreRefusesCorruptState feeds RestoreCheckpoint states whose
// columns do not fit the cache. Each must be refused with an error that
// names the level, without a panic and before any column is written.
func TestRestoreRefusesCorruptState(t *testing.T) {
	cases := []struct {
		name   string
		geom   int
		mutate func(st *checkpoint.CacheState)
	}{
		{"short tag", geomProtected, func(st *checkpoint.CacheState) { st.Tag = st.Tag[:len(st.Tag)-1] }},
		{"long tag", geomProtected, func(st *checkpoint.CacheState) { st.Tag = append(st.Tag, 0) }},
		{"short lru", geomProtected, func(st *checkpoint.CacheState) { st.LRU = st.LRU[:len(st.LRU)-1] }},
		{"long lru", geomProtected, func(st *checkpoint.CacheState) { st.LRU = append(st.LRU, 0) }},
		{"short readyAt", geomProtected, func(st *checkpoint.CacheState) { st.ReadyAt = st.ReadyAt[:len(st.ReadyAt)-1] }},
		{"long readyAt", geomProtected, func(st *checkpoint.CacheState) { st.ReadyAt = append(st.ReadyAt, 0) }},
		{"short valid bitmask", geomProtected, func(st *checkpoint.CacheState) { st.Valid = st.Valid[:len(st.Valid)-1] }},
		{"long valid bitmask", geomProtected, func(st *checkpoint.CacheState) { st.Valid = append(st.Valid, 0xff) }},
		{"long priority bitmask", geomProtected, func(st *checkpoint.CacheState) { st.Priority = append(st.Priority, 0) }},
		{"long prefetched bitmask", geomProtected, func(st *checkpoint.CacheState) { st.Prefetched = append(st.Prefetched, 0) }},
		{"owner on non-owner level", geomProtected, func(st *checkpoint.CacheState) { st.Owner = make([]uint8, len(st.Tag)) }},
		{"geometry", geomProtected, func(st *checkpoint.CacheState) { st.Sets *= 2 }},
		{"missing owner column", geomOwners, func(st *checkpoint.CacheState) { st.Owner = nil }},
		{"long owner column", geomOwners, func(st *checkpoint.CacheState) { st.Owner = append(st.Owner, 0) }},
		{"line owner out of range", geomOwners, func(st *checkpoint.CacheState) { st.Owner[3] = 7 }},
		{"in-flight owner count", geomOwners, func(st *checkpoint.CacheState) { st.InflightOwner = append(st.InflightOwner, 0) }},
		{"in-flight owner out of range", geomOwners, func(st *checkpoint.CacheState) {
			st.Inflight = append(st.Inflight, 1<<20)
			st.InflightOwner = append(st.InflightOwner, 9)
		}},
		{"per-owner stats count", geomOwners, func(st *checkpoint.CacheState) { st.Owners = st.Owners[:1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := newCkCache(t, tc.geom)
			drive(src, 1, pattern(256, 37, 11))
			st := src.CaptureCheckpoint()
			tc.mutate(&st)

			dst := newCkCache(t, tc.geom)
			drive(dst, 1, pattern(256, 53, 5))
			before := dst.CaptureCheckpoint()
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("restore panicked: %v", r)
					}
				}()
				err = dst.RestoreCheckpoint(st)
			}()
			if err == nil {
				t.Fatal("corrupt state restored without error")
			}
			if !strings.Contains(err.Error(), "cache ck") {
				t.Errorf("error %q does not name the level", err)
			}
			if diff := columnDiff(before, dst.CaptureCheckpoint()); len(diff) > 0 {
				t.Errorf("refused restore still wrote %v", diff)
			}
		})
	}
}
