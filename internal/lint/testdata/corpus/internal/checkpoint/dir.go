// dir.go is the host side of the corpus checkpoint package: the store's
// decoded-state cache bookkeeping. Its structs live next to the mirror
// tree but are not wire format — no capture code ever writes their
// fields — so the mirror-coverage walk, which starts at State, must never
// reach them. No markers here: any diagnostic on this file is a
// regression.
package checkpoint

// Store is a decoded-state cache keyed by content address.
type Store struct {
	path  string
	cost  int64
	limit int64
	hits  uint64
}

// StoreStats is the store's counter snapshot — host-side observability,
// never serialized.
type StoreStats struct {
	Hits   uint64
	Misses uint64
}

// Admit charges cost against the cache budget and records a hit when the
// entry fits.
func (s *Store) Admit(cost int64) bool {
	if s.limit > 0 && s.cost+cost > s.limit {
		return false
	}
	s.cost += cost
	s.hits++
	return true
}

// Stats reports the store's counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{Hits: s.hits}
}

// Path reports where the store keeps its files.
func (s *Store) Path() string { return s.path }
