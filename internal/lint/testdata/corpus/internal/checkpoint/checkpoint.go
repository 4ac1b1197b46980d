// Package checkpoint is the corpus mirror tree: serializable snapshots of
// the corpus sim package's state.
package checkpoint

// State mirrors sim.Machine; it is the root of the mirror walk. Orphan is
// written by no code at all, and Decoded only by this package's own
// decoder — a decode-side write is not a capture, so the mirror-coverage
// check must flag both.
type State struct {
	Cyc     int64
	Hist    []int64
	Orphan  int   // want:checkpointcoverage
	Decoded int64 // want:checkpointcoverage
}
