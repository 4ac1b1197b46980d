package core

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"pdip/internal/eip"
	"pdip/internal/fnlmma"
	"pdip/internal/pdip"
	"pdip/internal/prefetch"
	"pdip/internal/rdip"
	"pdip/internal/trace"
	"pdip/internal/trace/champsim"
)

// checkpointManifest is the authoritative field-coverage ledger of the
// checkpoint format: every field of every struct reachable from the
// simulator's state roots must be listed here with a disposition.
// TestCheckpointCompleteness walks the type tree by reflection and fails
// on any field that is missing, so adding state to the simulator without
// deciding its checkpoint treatment is a compile-adjacent error, not a
// silent replay divergence.
//
// Dispositions:
//
//	state   — captured in checkpoint.State (walk recurses into it)
//	config  — construction parameter, rebuilt identically by New from Config
//	wiring  — reference/port/stage plumbing, rebuilt identically by New
//	pool    — free-list; recycled objects are reset field-for-field, so an
//	          empty pool is behaviourally identical to a warm one
//	scratch — within-cycle or invariant-only bookkeeping, empty/ignorable
//	          at every cycle boundary (where snapshots are taken)
//	memo    — pure cache, invalidated on restore and recomputed on demand
//	derived — recomputed from captured fields during construction/restore
//	diag    — diagnostics or measurement output cleared by ResetStats
//	          (snapshot forks call ResetStats before measuring)
var checkpointManifest = map[string]map[string]string{
	"core.Core": {
		"cfg":   "config",
		"prog":  "config",
		"hier":  "state",
		"iport": "wiring", "dport": "wiring",
		"bp": "state", "iag": "state", "ftq": "state", "pq": "state", "rob": "state",
		// pf is captured through prefetch.Checkpointer; the concrete types
		// are walk roots because reflection cannot traverse an interface.
		"pf":       "state",
		"pipe":     "wiring",
		"decodeQ":  "state",
		"ifuEntry": "state",
		"now":      "state", "seq": "state", "retired": "state",
		"pendingResteer": "state", "hasResteer": "state", "iagResumeAt": "state",
		"shadowTrigger": "state", "shadowWasReturn": "state", "shadowLeft": "state",
		"lastTakenBlock": "state",
		"promoted":       "state", "fecEver": "state",
		"fecSet": "state", "pfSet": "state",
		"fecReqAge": "state", "fecHolds": "state", "fecTrace": "state",
		"dataRng": "state", "promoRng": "state",
		"reg": "state", "ct": "wiring",
		"sampleEvery": "state", "samples": "diag", "sampleHook": "diag",
		"reqBuf": "scratch", "retireBuf": "scratch",
		"uopFree": "pool", "epFree": "pool",
		"pfEmitter": "wiring", "pfCallsRet": "wiring",
	},
	"pdip.PDIP": {
		"cfg": "config", "sets": "state", "tick": "state", "r": "state",
		"Stats": "state", "debugInserted": "diag", "DebugLog": "diag",
	},
	"eip.EIP": {
		"cfg": "config", "hist": "state", "head": "state", "size": "state",
		"sets": "state", "anal": "state", "tick": "state", "Stats": "state",
	},
	"rdip.RDIP": {
		"cfg": "config", "sets": "state", "tick": "state", "ras": "state",
		"sig": "state", "pending": "state", "Stats": "state",
	},
	"fnlmma.FNLMMA": {
		"cfg": "config", "worth": "state", "mmaTag": "state", "mmaDst": "state",
		"missRing": "state", "missHead": "state", "pending": "state", "Stats": "state",
	},
	"prefetch.NextLine": {
		"Degree": "config", "Emitted": "state", "pending": "state",
	},
	"prefetch.None": {},

	"mem.Hierarchy": {
		"L1I": "state", "L1D": "state", "L2": "state", "L3": "state",
		"DRAMLatency": "config",
		"inst":        "wiring", "data": "wiring",
		// shared selects the capture shape (a shared hierarchy skips the
		// uncore-owned L2/L3); it is wiring decided at construction.
		"shared": "config",
	},
	// Socket-level state: the shared uncore is captured once
	// (checkpoint.UncoreState), cores as children. targets/finals are Run
	// bookkeeping re-established by the next Run call, not simulator state.
	"core.Socket": {
		"cores": "state", "unc": "state",
		"cfg": "config", "noFF": "config",
		"now":     "state",
		"targets": "diag", "finals": "diag",
	},
	"uncore.Uncore": {
		"L2": "state", "L3": "state",
		"DRAMLatency": "config",
		"chain":       "wiring", "ports": "wiring",
		"reg": "state",
	},
	"bpu.BPU": {
		"Tage": "state", "Ittage": "state", "Btb": "state", "Ras": "state",
		"Stats": "state",
	},
	"frontend.IAG": {
		"BPU":    "wiring",
		"oracle": "state", "wrong": "state",
		"maxEntryInsts":     "config",
		"pendingMispredict": "state",
		"free":              "pool", "wrongFree": "pool",
	},
	"frontend.FTQ": {
		"entries": "state",
		// Ring phase is representation, not simulated state: restore
		// re-pushes entries oldest-first at head = 0.
		"head": "derived", "count": "derived",
	},
	"prefetch.Queue": {
		"entries": "state",
		"head":    "derived", "count": "derived",
		"ReserveMSHRs": "config", "IssuePerCycle": "config", "ZeroCost": "config",
		"Stats": "state",
	},
	"backend.ROB": {
		"entries": "state",
		"head":    "derived", "count": "derived",
		"Stats": "state",
	},
	"pipeline.Latch": {
		"buf":  "state",
		"head": "derived",
	},
	"frontend.FTQEntry": {
		"Insts": "state", "Start": "state", "Lines": "state",
		"WrongPath": "state", "HasBranch": "state", "Pred": "state",
		"Mispredict": "state", "Cause": "state", "ResolveAtDecode": "state",
		"CorrectTarget": "state", "ShadowTrigger": "state",
		"ShadowWasReturn": "state", "Episodes": "state", "ReadyAt": "state",
	},
	"core.resteerEvent": {
		"at": "state", "target": "state", "trigger": "state", "cause": "state",
	},
	"core.FECInstance": {
		"Line": "state", "Trigger": "state", "Starve": "state", "Served": "state",
	},
	"rng.RNG": {
		"state": "state",
	},
	"metrics.Registry": {
		// Owned metric values are captured name-sorted; bound functions
		// read live simulator state and are excluded by construction.
		"counters": "state", "gauges": "state", "hists": "state",
		"counterFns": "wiring", "gaugeFns": "wiring",
	},
	"pdip.entry": {
		"valid": "state", "tag": "state", "lru": "state", "targets": "state",
	},
	"pdip.Stats": {
		"InsertAttempts": "state", "InsertFiltered": "state",
		"InsertNoTrigger": "state", "InsertReturnSkipped": "state",
		"Inserted": "state", "MaskMerged": "state",
		"Lookups": "state", "Hits": "state",
	},
	"eip.histEntry": {
		"line": "state", "cycle": "state",
	},
	"eip.tableEntry": {
		"valid": "state", "tag": "state", "lru": "state", "dsts": "state",
	},
	"eip.Stats": {
		"Entangled": "state", "NoSource": "state", "Lookups": "state", "Hits": "state",
	},
	"rdip.entry": {
		"valid": "state", "tag": "state", "lru": "state", "lines": "state",
	},
	"rdip.Stats": {
		"ContextSwitches": "state", "Recorded": "state", "Hits": "state",
	},
	"fnlmma.Stats": {
		"FNLEmitted": "state", "MMAEmitted": "state", "Trained": "state",
	},
	"prefetch.Request": {
		"Line": "state", "Trigger": "state",
	},

	"cache.Cache": {
		"cfg":     "config",
		"setMask": "derived",
		// Line metadata: the columns of checkpoint.CacheState.
		"tag": "state", "lru": "state", "readyAt": "state",
		"valid": "state", "priority": "state", "prefetched": "state",
		"owner": "state",
		"tick":  "state", "inflight": "state", "inflightMin": "state",
		"Stats": "state",
		// Owner tracking (shared levels): the owner columns are state; the
		// per-owner occupancy is recounted from InflightOwner at restore,
		// and the earliest-free scratch is reused per call.
		"Owners":        "state",
		"ownerReserve":  "config",
		"ownerUsed":     "derived",
		"inflightOwner": "state",
		"scratchT":      "scratch", "scratchO": "scratch", "scratchU": "scratch",
	},
	"bpu.TAGE": {
		"base": "state", "tables": "state", "hist": "state",
		"idxFold": "state", "tagFold": "state", "tg2Fold": "state",
		"useAltOnNa": "state", "allocSeed": "state",
		"memoPC": "memo", "memoOK": "memo", "memoIdx": "memo", "memoTag": "memo",
	},
	"bpu.ITTAGE": {
		"base": "state", "tables": "state", "hist": "state",
		"idxFold": "state", "tagFold": "state", "allocSeed": "state",
		"memoPC": "memo", "memoOK": "memo", "memoIdx": "memo", "memoTag": "memo",
	},
	"bpu.BTB": {
		"sets":     "state",
		"setShift": "derived", "setMask": "derived",
		"tick": "state", "lookups": "state", "hits": "state",
	},
	"bpu.RAS": {
		"entries": "state", "top": "state", "depth": "state",
	},
	"bpu.Stats": {
		"CondBranches": "state", "CondMispredict": "state",
		"BTBLookups": "state", "BTBMissTaken": "state",
		"IndBranches": "state", "IndMispredict": "state",
		"Returns": "state", "RetMispredict": "state",
	},
	"trace.Walker": {
		"prog": "config", "r": "state", "stack": "state", "loopCnt": "state",
		// cur is captured as a block ID and re-resolved into prog.
		"cur":     "state",
		"instIdx": "state", "lostPC": "state", "wrongPath": "state",
		// pc is re-derived from cur and instIdx on restore.
		"pc":             "derived",
		"dispatchCenter": "state", "count": "state",
	},
	"prefetch.Stats": {
		"Enqueued": "state", "DroppedQueueFull": "state", "Issued": "state",
		"DroppedPresent": "state", "DroppedMSHR": "state", "ByTrigger": "state",
	},
	"frontend.Uop": {
		"Inst": "state", "Seq": "state", "WrongPath": "state",
		// Ep is serialized as an index into the deduplicated episode table
		// so shared-episode identity survives the round trip.
		"Ep":         "state",
		"Mispredict": "state", "ResolveAtDecode": "state", "Cause": "state",
		"CorrectTarget": "state", "TriggerBlock": "state", "IsMemOp": "state",
		"DataLine": "state", "DoneAt": "state", "AvailableAt": "state",
	},
	"backend.Stats": {
		"Pushed": "state", "Retired": "state", "Squashed": "state",
	},
	"isa.Inst": {
		"PC": "state", "Size": "state", "Kind": "state",
		"Taken": "state", "Target": "state",
	},
	"bpu.Prediction": {
		"Taken": "state", "Target": "state", "BTBHit": "state",
	},
	"frontend.LineEpisode": {
		"Line": "state", "WrongPath": "state", "Missed": "state",
		"ServedBy": "state", "FetchCycle": "state", "DoneCycle": "state",
		"Starve": "state", "BackendEmpty": "state", "WasPrefetch": "state",
		"Processed": "state", "ResteerTrigger": "state",
		"ResteerWasReturn": "state", "Refs": "state",
	},
	"metrics.Counter": {"v": "state"},
	"metrics.Gauge":   {"v": "state"},
	"metrics.Histogram": {
		"bounds": "config",
		"counts": "state", "total": "state", "sum": "state",
	},
	"pdip.target": {
		"valid": "state", "base": "state", "mask": "state",
		"trig": "state", "lru": "state",
	},

	"cache.OwnerStats": {
		"Fills": "state", "MSHRSteals": "state",
		"DelayedFills": "state", "DelayCycles": "state",
		"SpecDropped":            "state",
		"CrossEvictionsSuffered": "state", "CrossEvictionsCaused": "state",
	},
	"cache.Stats": {
		"Accesses": "state", "Misses": "state", "InstMisses": "state",
		"DataMisses": "state", "LateHits": "state", "Fills": "state",
		"PrefetchFills": "state", "UsefulPrefetches": "state",
		"LatePrefetches": "state", "UselessPrefetches": "state",
		"Evictions": "state",
	},
	"bpu.tageEntry": {
		"tag": "state", "ctr": "state", "useful": "state",
	},
	"bpu.ittageEntry": {
		"tag": "state", "target": "state", "ctr": "state", "useful": "state",
	},
	"bpu.history": {
		"bits": "state", "head": "state",
	},
	"bpu.foldedHist": {
		"comp":    "state",
		"origLen": "derived", "width": "derived", "outPoint": "derived",
	},
	"bpu.btbEntry": {
		"valid": "state", "tag": "state", "target": "state",
		"kind": "state", "lru": "state",
	},
	// Blocks are immutable program structure, regenerated deterministically
	// from the workload parameters; the walker's position in them is the
	// state (captured as a block ID re-resolved into the program).
	"cfg.Block": {
		"ID": "config", "Func": "config", "Addr": "config",
		"sizeOff": "config", "nInsts": "config", "bytes": "config",
		"lastSize": "config", "Term": "config",
	},
	// ChampSim trace replay: the trace file is reconstruction input, the
	// stream position and derived-wrong-path structures are the state
	// (ChampSimState in the checkpoint's SourceState union). err latches
	// replay divergences for post-run reporting and is reset on restore.
	"champsim.Source": {
		"r": "state", "shadow": "state",
		"cur": "state", "primed": "state", "count": "state",
		"dec": "state", "ras": "state",
		"err":       "diag",
		"freeWrong": "pool",
	},
	// The reader's chunk window and pass position are re-derived from the
	// captured instruction count (RestoreSource reseeks the stream).
	"champsim.Reader": {
		"path": "config", "f": "wiring", "zr": "wiring", "gz": "config",
		"buf": "scratch", "pos": "derived", "n": "derived",
		"recInPass": "derived", "passRecords": "config", "wraps": "derived",
	},
	// The lookahead record is re-read from the reseeked stream; its wire
	// fields are state in the same sense the walker's position is.
	"champsim.Record": {
		"IP": "derived", "IsBranch": "derived", "BranchTaken": "derived",
		"DestRegs": "derived", "SrcRegs": "derived",
		"DestMem": "derived", "SrcMem": "derived",
	},
	"champsim.decodeCache": {"inst": "state", "valid": "state"},
	"champsim.rasMirror":   {"buf": "state", "top": "state", "depth": "state"},
	"champsim.Wrong":       {"src": "wiring", "pc": "state", "ras": "state"},
}

// checkpointRoots returns the state roots of the walk: the core itself
// plus every implementation reachable only through an interface, which
// reflection cannot traverse — the prefetchers (prefetch.Prefetcher) and
// the instruction sources (trace.Source / trace.OracleSource).
func checkpointRoots() []reflect.Type {
	return []reflect.Type{
		reflect.TypeOf(Core{}),
		reflect.TypeOf(Socket{}),
		reflect.TypeOf(pdip.PDIP{}),
		reflect.TypeOf(eip.EIP{}),
		reflect.TypeOf(rdip.RDIP{}),
		reflect.TypeOf(fnlmma.FNLMMA{}),
		reflect.TypeOf(prefetch.NextLine{}),
		reflect.TypeOf(prefetch.None{}),
		reflect.TypeOf(trace.Walker{}),
		reflect.TypeOf(champsim.Source{}),
		reflect.TypeOf(champsim.Wrong{}),
	}
}

// typeKey renders a struct type as "pkg.Name", with generic instantiation
// arguments stripped ("pipeline.Latch").
func typeKey(t reflect.Type) string {
	name := t.Name()
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	pkg := t.PkgPath()
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[i+1:]
	}
	return pkg + "." + name
}

// walkable unwraps pointers and container types down to an element type,
// returning the struct types a field can lead to.
func walkable(t reflect.Type) []reflect.Type {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return walkable(t.Elem())
	case reflect.Map:
		return append(walkable(t.Key()), walkable(t.Elem())...)
	case reflect.Struct:
		if strings.HasPrefix(t.PkgPath(), "pdip/") {
			return []reflect.Type{t}
		}
	}
	return nil
}

func TestCheckpointCompleteness(t *testing.T) {
	seen := map[reflect.Type]bool{}
	reached := map[string]bool{}
	queue := checkpointRoots()
	for len(queue) > 0 {
		typ := queue[0]
		queue = queue[1:]
		if seen[typ] {
			continue
		}
		seen[typ] = true
		key := typeKey(typ)
		reached[key] = true
		fields, ok := checkpointManifest[key]
		if !ok {
			var missing []string
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				missing = append(missing, f.Name+" "+f.Type.String())
			}
			t.Errorf("struct %s reached by the checkpoint walk but has no manifest entry; fields:\n\t%s",
				key, strings.Join(missing, "\n\t"))
			continue
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			disp, ok := fields[f.Name]
			if !ok {
				t.Errorf("field %s.%s (%s) is not in the checkpoint manifest — capture it in the checkpoint format or record why it can be skipped",
					key, f.Name, f.Type.String())
				continue
			}
			if disp == "state" {
				queue = append(queue, walkable(f.Type)...)
			}
		}
		// Stale manifest entries rot into false confidence; flag them.
		for name := range fields {
			if _, ok := typ.FieldByName(name); !ok {
				t.Errorf("manifest lists %s.%s but the struct has no such field (stale entry)", key, name)
			}
		}
	}
	var stale []string
	for key := range checkpointManifest {
		if !reached[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("manifest entry %s was never reached by the walk (stale type, or a root is missing)", key)
	}
}
