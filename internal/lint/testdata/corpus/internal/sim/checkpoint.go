package sim

import "corpus/internal/checkpoint"

// Capture snapshots m into the mirror tree. It deliberately omits
// Machine.lost (seeding the uncaptured-state-field diagnostic) and writes
// nothing into State.Orphan (seeding the mirror-coverage diagnostic).
func (m *Machine) Capture() checkpoint.State {
	st := checkpoint.State{Cyc: m.cyc}
	for _, e := range m.hist {
		st.Hist = append(st.Hist, e.V)
	}
	_ = m.g
	return st
}

// Restore rebuilds m from st.
func (m *Machine) Restore(st checkpoint.State) {
	m.cyc = st.Cyc
	m.hist = m.hist[:0]
	for _, v := range st.Hist {
		m.hist = append(m.hist, Entry{V: v})
	}
}
