package cache

import (
	"fmt"
	"slices"

	"pdip/internal/checkpoint"
)

// CaptureCheckpoint captures every line's metadata (tag, LRU stamp,
// EMISSARY P-bit, in-flight deadline), the MSHR file, the replacement
// clock, and the level's stats. Geometry (set count, ways) is recorded so
// a restore into a differently configured cache fails loudly. The line
// columns are the cache's own, so each is one clone.
func (c *Cache) CaptureCheckpoint() checkpoint.CacheState {
	st := checkpoint.CacheState{
		Sets:        c.NumSets(),
		Ways:        c.cfg.Ways,
		Tag:         slices.Clone(c.tag),
		LRU:         slices.Clone(c.lru),
		ReadyAt:     slices.Clone(c.readyAt),
		Valid:       slices.Clone(c.valid),
		Priority:    slices.Clone(c.priority),
		Prefetched:  slices.Clone(c.prefetched),
		Owner:       slices.Clone(c.owner),
		Tick:        c.tick,
		Inflight:    append([]int64(nil), c.inflight...),
		InflightMin: c.inflightMin,
		Stats:       checkpoint.CacheStats(c.Stats),
	}
	if c.Owners != nil {
		st.InflightOwner = append([]uint8(nil), c.inflightOwner...)
		st.Owners = make([]checkpoint.OwnerStats, len(c.Owners))
		for i, o := range c.Owners {
			st.Owners[i] = checkpoint.OwnerStats(o)
		}
	}
	return st
}

// RestoreCheckpoint overwrites the cache's state from a captured state.
// The receiver must have been built with the same geometry and owner
// tracking, and every column must be exactly as long as that geometry
// needs: a corrupt state is refused before anything is written. Slices
// from st are copied, never aliased, so one checkpoint can restore many
// caches concurrently.
func (c *Cache) RestoreCheckpoint(st checkpoint.CacheState) error {
	if st.Sets != c.NumSets() || st.Ways != c.cfg.Ways {
		return fmt.Errorf("cache %s: checkpoint geometry %dx%d, cache is %dx%d",
			c.cfg.Name, st.Sets, st.Ways, c.NumSets(), c.cfg.Ways)
	}
	wantInflightOwners := 0
	if c.Owners != nil {
		wantInflightOwners = len(st.Inflight)
	}
	for _, col := range []struct {
		name      string
		got, want int
	}{
		{"tag", len(st.Tag), len(c.tag)},
		{"lru", len(st.LRU), len(c.lru)},
		{"readyAt", len(st.ReadyAt), len(c.readyAt)},
		{"valid bitmask", len(st.Valid), len(c.valid)},
		{"priority bitmask", len(st.Priority), len(c.priority)},
		{"prefetched bitmask", len(st.Prefetched), len(c.prefetched)},
		{"owner", len(st.Owner), len(c.owner)},
		{"in-flight owner", len(st.InflightOwner), wantInflightOwners},
		{"per-owner stats", len(st.Owners), len(c.Owners)},
	} {
		if col.got != col.want {
			return fmt.Errorf("cache %s: checkpoint %s column has %d entries, want %d",
				c.cfg.Name, col.name, col.got, col.want)
		}
	}
	for _, owners := range [][]uint8{st.Owner, st.InflightOwner} {
		for _, o := range owners {
			if int(o) >= len(c.Owners) {
				return fmt.Errorf("cache %s: checkpoint owner %d outside 0..%d", c.cfg.Name, o, len(c.Owners)-1)
			}
		}
	}
	copy(c.tag, st.Tag)
	copy(c.lru, st.LRU)
	copy(c.readyAt, st.ReadyAt)
	copy(c.valid, st.Valid)
	copy(c.priority, st.Priority)
	copy(c.prefetched, st.Prefetched)
	copy(c.owner, st.Owner)
	c.tick = st.Tick
	c.inflight = append(c.inflight[:0], st.Inflight...)
	c.inflightMin = st.InflightMin
	c.Stats = Stats(st.Stats)
	if c.Owners != nil {
		c.inflightOwner = append(c.inflightOwner[:0], st.InflightOwner...)
		// Per-owner occupancy is derived: recount it from the restored
		// owner column rather than trusting a redundant encoding.
		clear(c.ownerUsed)
		for _, o := range c.inflightOwner {
			c.ownerUsed[o]++
		}
		for i := range c.Owners {
			c.Owners[i] = OwnerStats(st.Owners[i])
		}
	}
	return nil
}
