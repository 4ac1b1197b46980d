// Binary columnar wire format (FormatVersion 4).
//
// Layout: a 4-byte magic ("PDCK"), a kind byte (state vs socket), a
// varint format version, then the state body as a sequence of framed
// sections — one per top-level State field group — each `id byte +
// uint32 little-endian payload length + payload`. Inside a section,
// fields encode in struct declaration order with typed column encodings:
//
//   - scalars: unsigned varint (uint16/32/64, Addr), zigzag varint
//     (int/int32/int64), single byte (uint8, int8, bool), 8-byte LE bits
//     (float64)
//   - sorted or clustered numeric columns (cache tags, MSHR deadlines,
//     address sets): zigzag-delta varints — consecutive deltas are tiny,
//     so entries cost 1–2 bytes instead of 8
//   - bool columns: the Bitmask bytes verbatim
//   - strings (metric names, source/prefetcher kinds): interned — first
//     use writes ref 0 + length + bytes, later uses write index+1; the
//     intern table is keyed by first-use order, so identical states
//     produce identical bytes
//
// There is no compression layer: the columnar layout is already compact,
// and skipping compression keeps encode/decode off the critical path of
// every fork.
//
// One walk per type: each state struct has exactly one codec method,
// which both directions run. Its primitives take pointers — encoding
// appends *p, decoding bounds-checks the input and stores into *p — so
// the encoder and decoder cannot disagree on a field's presence, order,
// or column type.
//
// Determinism contract: the state structs hold no maps and every column
// encodes in declaration order, so encoding the same state twice yields
// identical bytes — the property content addressing (Key/Save/Load) and
// the fabric's warm-once leases rely on.
//
// The decoder never trusts the input: every length is bounds-checked
// against the remaining bytes before allocation, sections must consume
// exactly their declared payload, and trailing bytes are an error.
// Corruption surfaces as an error from Decode, never a panic
// (FuzzBinaryCheckpointDecode pins this).
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"pdip/internal/isa"
)

// Wire constants.
const (
	kindState  = 1
	kindSocket = 2
)

var binMagic = [4]byte{'P', 'D', 'C', 'K'}

// Section ids for the State body (one per top-level field group) and the
// SocketState body.
const (
	secCore       = 1
	secMetrics    = 2
	secMem        = 3
	secBPU        = 4
	secIAG        = 5
	secEpisodes   = 6
	secFTQ        = 7
	secIFU        = 8
	secDecodeQ    = 9
	secROB        = 10
	secPQ         = 11
	secPrefetcher = 12

	secUncore = 20
	secCores  = 21
)

// encPool recycles encoding codecs: a warmed state encodes to hundreds of
// KB, and Save/fork paths encode repeatedly with identical sizes.
var encPool = sync.Pool{New: func() any { return &codec{enc: true, strs: make(map[string]uint64)} }}

// Encode writes st to w in the binary columnar format. Identical states
// encode to identical bytes — the property content addressing relies on.
func Encode(w io.Writer, st *State) error {
	c := newEncoder()
	c.header(kindState, &st.Version)
	c.state(st)
	return c.flush(w, "encode")
}

// EncodeSocket writes a socket state in the binary columnar format, with
// the same determinism contract as Encode.
func EncodeSocket(w io.Writer, st *SocketState) error {
	c := newEncoder()
	c.header(kindSocket, &st.Version)
	c.socket(st)
	return c.flush(w, "encode socket")
}

// Decode reads a state previously written by Encode. Any other stream — a
// different format version, a foreign or corrupt file — is an error the
// caller treats as a cache miss and re-warms.
func Decode(r io.Reader) (*State, error) {
	b, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	return DecodeBytes(b)
}

// DecodeBytes is Decode over an in-memory stream, avoiding the reader
// indirection on the fork fast path. The returned state never aliases b:
// byte columns and strings are copied out, so the caller may recycle b.
func DecodeBytes(b []byte) (st *State, err error) {
	defer catchCorrupt(&err, "decode")
	c := codec{buf: b}
	var ver int
	c.header(kindState, &ver)
	if ver != FormatVersion {
		return nil, fmt.Errorf("checkpoint: format version %d, want %d", ver, FormatVersion)
	}
	s := &State{}
	c.state(s)
	s.Version = ver
	c.done()
	return s, nil
}

// DecodeSocket reads a socket state previously written by EncodeSocket.
func DecodeSocket(r io.Reader) (st *SocketState, err error) {
	b, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decode socket: %w", err)
	}
	defer catchCorrupt(&err, "decode socket")
	c := codec{buf: b}
	s := &SocketState{}
	c.header(kindSocket, &s.Version)
	if s.Version != FormatVersion {
		return nil, fmt.Errorf("checkpoint: socket format version %d, want %d", s.Version, FormatVersion)
	}
	c.socket(s)
	c.done()
	return s, nil
}

// readAll is io.ReadAll with an exact-size fast path for readers that
// know their length (bytes.Reader, bytes.Buffer): one right-sized
// allocation instead of append-doubling through megabytes of garbage.
func readAll(r io.Reader) ([]byte, error) {
	if l, ok := r.(interface{ Len() int }); ok {
		b := make([]byte, l.Len())
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	return io.ReadAll(r)
}

// corrupt is the decoder's internal corruption signal; catchCorrupt
// converts it to an error at the API boundary.
type corrupt struct{ msg string }

func catchCorrupt(err *error, op string) {
	if p := recover(); p != nil {
		c, ok := p.(corrupt)
		if !ok {
			panic(p)
		}
		*err = fmt.Errorf("checkpoint: %s: corrupt stream: %s", op, c.msg)
	}
}

// ---------------------------------------------------------------------------
// Codec machinery

// codec is one pass over the wire bytes in either direction. Encoding
// appends to buf; decoding reads buf from off with strict bounds checks,
// and any inconsistency panics with corrupt, recovered at the API
// boundary.
type codec struct {
	enc bool
	buf []byte
	off int
	// strs is the encoder's intern table: name → emitted index, keyed by
	// first-use order. Lookup only — never iterated — so it cannot perturb
	// byte determinism.
	strs map[string]uint64
	// names is the decoder's intern table in first-use order.
	names []string
}

func newEncoder() *codec {
	c := encPool.Get().(*codec)
	c.buf = c.buf[:0]
	clear(c.strs)
	return c
}

// flush writes the encoded bytes to w and returns c to the pool.
func (c *codec) flush(w io.Writer, op string) error {
	_, err := w.Write(c.buf)
	encPool.Put(c)
	if err != nil {
		return fmt.Errorf("checkpoint: %s: %w", op, err)
	}
	return nil
}

func (c *codec) fail(format string, args ...any) {
	panic(corrupt{fmt.Sprintf(format+" at offset %d", append(args, c.off)...)})
}

func (c *codec) need(n int) {
	if n < 0 || len(c.buf)-c.off < n {
		c.fail("need %d bytes, have %d", n, len(c.buf)-c.off)
	}
}

func (c *codec) done() {
	if c.off != len(c.buf) {
		c.fail("%d trailing bytes", len(c.buf)-c.off)
	}
}

func (c *codec) header(kind byte, version *int) {
	if c.enc {
		c.buf = append(c.buf, binMagic[0], binMagic[1], binMagic[2], binMagic[3], kind)
	} else {
		c.need(5)
		if [4]byte(c.buf[:4]) != binMagic {
			c.fail("bad magic %x", c.buf[:4])
		}
		if c.buf[4] != kind {
			c.fail("wrong checkpoint kind %d, want %d", c.buf[4], kind)
		}
		c.off = 5
	}
	c.version(version)
}

func (c *codec) version(p *int) {
	if c.enc {
		c.putUv(uint64(*p))
		return
	}
	v := c.getUv()
	if v > math.MaxInt32 {
		c.fail("absurd version %d", v)
	}
	*p = int(v)
}

// section frames fn's fields as `id + uint32 LE length + payload`.
// Encoding patches the length after the payload; decoding checks the
// header and that fn consumed exactly the declared payload.
func (c *codec) section(id byte, fn func()) {
	if c.enc {
		c.buf = append(c.buf, id, 0, 0, 0, 0)
		start := len(c.buf)
		fn()
		binary.LittleEndian.PutUint32(c.buf[start-4:], uint32(len(c.buf)-start))
		return
	}
	c.need(5)
	if c.buf[c.off] != id {
		c.fail("section id %d, want %d", c.buf[c.off], id)
	}
	n := int(binary.LittleEndian.Uint32(c.buf[c.off+1 : c.off+5]))
	c.off += 5
	c.need(n)
	end := c.off + n
	fn()
	if c.off != end {
		c.fail("section %d length mismatch: ended at %d, want %d", id, c.off, end)
	}
}

func (c *codec) putUv(v uint64) { c.buf = binary.AppendUvarint(c.buf, v) }
func (c *codec) putSv(v int64)  { c.buf = binary.AppendVarint(c.buf, v) }

func (c *codec) getUv() uint64 {
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.fail("bad uvarint")
	}
	c.off += n
	return v
}

func (c *codec) getSv() int64 {
	v, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		c.fail("bad varint")
	}
	c.off += n
	return v
}

func (c *codec) getByte() byte {
	c.need(1)
	v := c.buf[c.off]
	c.off++
	return v
}

// count codes an element count. Decoding rejects any claim that could not
// fit in the remaining bytes at minBytes per element — the allocation
// guard that keeps adversarial inputs from forcing huge makes.
func (c *codec) count(n *int, minBytes int) {
	if c.enc {
		c.putUv(uint64(*n))
		return
	}
	v := c.getUv()
	if v > uint64(len(c.buf)-c.off)/uint64(minBytes) {
		c.fail("count %d exceeds remaining input", v)
	}
	*n = int(v)
}

// ---------------------------------------------------------------------------
// Scalars

func (c *codec) uv(p *uint64)           { uvar(c, p) }
func (c *codec) addr(p *isa.Addr)       { uvar(c, p) }
func (c *codec) u32(p *uint32)          { uvar(c, p) }
func (c *codec) u16(p *uint16)          { uvar(c, p) }
func (c *codec) sv(p *int64)            { svar(c, p) }
func (c *codec) vi(p *int)              { svar(c, p) }
func (c *codec) i32(p *int32)           { svar(c, p) }
func (c *codec) u8(p *uint8)            { byteVar(c, p) }
func (c *codec) i8(p *int8)             { byteVar(c, p) }
func (c *codec) kind(p *isa.BranchKind) { byteVar(c, p) }

// uvar codes an unsigned varint; decoding rejects values T cannot hold.
// It and byteVar read the input directly rather than through getUv and
// getByte: they run once per field, and the extra call level showed in
// decode time.
func uvar[T ~uint16 | ~uint32 | ~uint64](c *codec, p *T) {
	if c.enc {
		c.putUv(uint64(*p))
		return
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 || uint64(T(v)) != v {
		c.fail("bad uvarint for its field")
	}
	c.off += n
	*p = T(v)
}

// svar codes a zigzag varint; decoding truncates to T like a conversion.
func svar[T ~int | ~int32 | ~int64](c *codec, p *T) {
	if c.enc {
		c.putSv(int64(*p))
		return
	}
	*p = T(c.getSv())
}

// byteVar codes a single byte.
func byteVar[T ~uint8 | ~int8](c *codec, p *T) {
	if c.enc {
		c.buf = append(c.buf, byte(*p))
		return
	}
	if c.off >= len(c.buf) {
		c.fail("need 1 byte")
	}
	*p = T(c.buf[c.off])
	c.off++
}

func (c *codec) bool(p *bool) {
	if c.enc {
		var b byte
		if *p {
			b = 1
		}
		c.buf = append(c.buf, b)
		return
	}
	switch c.getByte() {
	case 0:
		*p = false
	case 1:
		*p = true
	default:
		c.fail("bad bool")
	}
}

func (c *codec) f64(p *float64) {
	if c.enc {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*p))
		return
	}
	c.need(8)
	*p = math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.off:]))
	c.off += 8
}

func (c *codec) str(p *string) {
	if c.enc {
		if idx, ok := c.strs[*p]; ok {
			c.putUv(idx + 1)
			return
		}
		c.strs[*p] = uint64(len(c.strs))
		c.putUv(0)
		c.putUv(uint64(len(*p)))
		c.buf = append(c.buf, *p...)
		return
	}
	ref := c.getUv()
	if ref == 0 {
		var n int
		c.count(&n, 1)
		c.need(n)
		s := string(c.buf[c.off : c.off+n])
		c.off += n
		c.names = append(c.names, s)
		*p = s
		return
	}
	if ref-1 >= uint64(len(c.names)) {
		c.fail("intern ref %d out of range", ref)
	}
	*p = c.names[ref-1]
}

// delta codes *p as a zigzag delta from *prev and advances *prev — one
// entry of a delta column. Arithmetic wraps, so unsorted columns stay
// correct, just less compact.
func delta[T ~int | ~int64 | ~uint64](c *codec, p, prev *T) {
	if c.enc {
		c.putSv(int64(*p - *prev))
	} else {
		*p = *prev + T(c.getSv())
	}
	*prev = *p
}

// ---------------------------------------------------------------------------
// Columns and containers

// items codes the count prefix of *p and returns the slice to walk: *p
// itself when encoding; when decoding, a fresh make of the decoded count
// stored into *p (nil for a zero count). minBytes is the per-element
// lower bound on the encoded size, for the count guard.
func items[T any](c *codec, p *[]T, minBytes int) []T {
	n := len(*p)
	c.count(&n, minBytes)
	if !c.enc && n > 0 {
		*p = make([]T, n)
	}
	return *p
}

// carve is items for slab-allocated tables: decoding takes the n
// elements off the front of *slab instead of making a slice of its own.
func carve[T any](c *codec, p *[]T, slab *[]T, minBytes int) []T {
	n := len(*p)
	c.count(&n, minBytes)
	if c.enc || n == 0 {
		return *p
	}
	if n > len(*slab) {
		c.fail("table count %d exceeds declared total", n)
	}
	*p = (*slab)[:n:n]
	*slab = (*slab)[n:]
	return *p
}

// opt codes a presence flag for the optional *p and returns the value to
// walk, or nil when absent. Decoding allocates a present value.
func opt[T any](c *codec, p **T) *T {
	present := *p != nil
	c.bool(&present)
	if !c.enc && present {
		*p = new(T)
	}
	return *p
}

// deltas codes a numeric column as zigzag deltas. Like every column
// primitive it picks the direction once, outside the element loop: the
// cache columns run to tens of thousands of entries.
func deltas[T ~int | ~int64 | ~uint64](c *codec, p *[]T) {
	xs := items(c, p, 1)
	var prev T
	if c.enc {
		for _, x := range xs {
			c.putSv(int64(x - prev))
			prev = x
		}
		return
	}
	for i := range xs {
		prev += T(c.getSv())
		xs[i] = prev
	}
}

// raw codes a length-prefixed byte column (bitmasks, owner columns),
// copied out of the input on decode.
func (c *codec) raw(p *[]byte) {
	n := len(*p)
	c.count(&n, 1)
	if c.enc {
		c.buf = append(c.buf, *p...)
		return
	}
	if n > 0 {
		*p = make([]byte, n)
		copy(*p, c.buf[c.off:])
		c.off += n
	}
}

// bools codes a bool column packed into a length-prefixed bitmask.
func (c *codec) bools(p *[]bool) {
	if c.enc {
		c.putUv(uint64(len(*p)))
		start := len(c.buf)
		c.buf = append(c.buf, make([]byte, (len(*p)+7)/8)...)
		for i, v := range *p {
			if v {
				c.buf[start+i/8] |= 1 << (i % 8)
			}
		}
		return
	}
	n := c.getUv()
	if n > uint64(len(c.buf)-c.off)*8 {
		c.fail("bool count %d exceeds remaining input", n)
	}
	nb := int(n+7) / 8
	c.need(nb)
	if n == 0 {
		return
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = c.buf[c.off+i/8]>>(i%8)&1 != 0
	}
	c.off += nb
	*p = out
}

// uvars codes a column of unsigned varints.
func uvars[T ~uint16 | ~uint32](c *codec, p *[]T) {
	xs := items(c, p, 1)
	if c.enc {
		for _, x := range xs {
			c.putUv(uint64(x))
		}
		return
	}
	for i := range xs {
		uvar(c, &xs[i])
	}
}

func (c *codec) i8s(p *[]int8) {
	xs := items(c, p, 1)
	if c.enc {
		for _, x := range xs {
			c.buf = append(c.buf, byte(x))
		}
		return
	}
	for i := range xs {
		xs[i] = int8(c.getByte())
	}
}

// ---------------------------------------------------------------------------
// State body: one walk per struct, fields in declaration order.

func (c *codec) socket(s *SocketState) {
	c.sv(&s.Now)
	c.bool(&s.SharedPrefetcher)
	c.section(secUncore, func() {
		c.cache(&s.Uncore.L2)
		c.cache(&s.Uncore.L3)
		c.registry(&s.Uncore.Metrics)
	})
	c.section(secCores, func() {
		cores := items(c, &s.Cores, 32)
		for i := range cores {
			c.state(&cores[i])
		}
	})
}

func (c *codec) state(st *State) {
	c.version(&st.Version)
	c.section(secCore, func() { c.core(&st.Core) })
	c.section(secMetrics, func() { c.registry(&st.Metrics) })
	c.section(secMem, func() {
		c.cache(&st.Mem.L1I)
		c.cache(&st.Mem.L1D)
		c.cache(&st.Mem.L2)
		c.cache(&st.Mem.L3)
		c.bool(&st.Mem.Shared)
	})
	c.section(secBPU, func() { c.bpu(&st.BPU) })
	c.section(secIAG, func() { c.iag(&st.IAG) })
	c.section(secEpisodes, func() {
		eps := items(c, &st.Episodes, 8)
		for i := range eps {
			c.episode(&eps[i])
		}
	})
	c.section(secFTQ, func() {
		ftq := items(c, &st.FTQ, 8)
		for i := range ftq {
			c.ftqEntry(&ftq[i])
		}
	})
	c.section(secIFU, func() {
		if ifu := opt(c, &st.IFU); ifu != nil {
			c.ftqEntry(ifu)
		}
	})
	c.section(secDecodeQ, func() { c.uops(&st.DecodeQ) })
	c.section(secROB, func() {
		c.uops(&st.ROB.Uops)
		c.uv(&st.ROB.Stats.Pushed)
		c.uv(&st.ROB.Stats.Retired)
		c.uv(&st.ROB.Stats.Squashed)
	})
	c.section(secPQ, func() { c.queue(&st.PQ) })
	c.section(secPrefetcher, func() { c.prefetcher(&st.Prefetcher) })
}

func (c *codec) core(s *CoreState) {
	c.sv(&s.Now)
	c.uv(&s.Seq)
	c.uv(&s.Retired)
	c.bool(&s.HasResteer)
	c.sv(&s.ResteerAt)
	c.addr(&s.ResteerTarget)
	c.addr(&s.ResteerTrigger)
	c.u8(&s.ResteerCause)
	c.sv(&s.IAGResumeAt)
	c.addr(&s.ShadowTrigger)
	c.bool(&s.ShadowWasReturn)
	c.vi(&s.ShadowLeft)
	c.addr(&s.LastTakenBlock)
	deltas(c, &s.Promoted)
	deltas(c, &s.FECEver)
	deltas(c, &s.FECSet)
	pf := items(c, &s.PFSet, 2)
	var prev isa.Addr
	for i := range pf {
		delta(c, &pf[i].Line, &prev)
		c.sv(&pf[i].Cycle)
	}
	for i := range s.FECReqAge {
		c.uv(&s.FECReqAge[i])
	}
	for i := range s.FECHolds {
		c.uv(&s.FECHolds[i])
	}
	tr := items(c, &s.FECTrace, 4)
	for i := range tr {
		t := &tr[i]
		c.addr(&t.Line)
		c.addr(&t.Trigger)
		c.vi(&t.Starve)
		c.u8(&t.Served)
	}
	c.uv(&s.SampleEvery)
	c.uv(&s.DataRng)
	c.uv(&s.PromoRng)
}

func (c *codec) registry(r *RegistryState) {
	cs := items(c, &r.Counters, 2)
	for i := range cs {
		c.str(&cs[i].Name)
		c.uv(&cs[i].Value)
	}
	gs := items(c, &r.Gauges, 2)
	for i := range gs {
		c.str(&gs[i].Name)
		c.f64(&gs[i].Value)
	}
	hs := items(c, &r.Histograms, 2)
	for i := range hs {
		h := &hs[i]
		c.str(&h.Name)
		deltas(c, &h.Counts)
		c.uv(&h.Total)
		c.f64(&h.Sum)
	}
}

func (c *codec) cache(s *CacheState) {
	c.vi(&s.Sets)
	c.vi(&s.Ways)
	deltas(c, &s.Tag)
	uvars(c, &s.LRU)
	deltas(c, &s.ReadyAt)
	c.raw((*[]byte)(&s.Valid))
	c.raw((*[]byte)(&s.Priority))
	c.raw((*[]byte)(&s.Prefetched))
	c.u32(&s.Tick)
	deltas(c, &s.Inflight)
	c.sv(&s.InflightMin)
	st := &s.Stats
	c.uv(&st.Accesses)
	c.uv(&st.Misses)
	c.uv(&st.InstMisses)
	c.uv(&st.DataMisses)
	c.uv(&st.LateHits)
	c.uv(&st.Fills)
	c.uv(&st.PrefetchFills)
	c.uv(&st.UsefulPrefetches)
	c.uv(&st.LatePrefetches)
	c.uv(&st.UselessPrefetches)
	c.uv(&st.Evictions)
	c.raw(&s.Owner)
	c.raw(&s.InflightOwner)
	owners := items(c, &s.Owners, 7)
	for i := range owners {
		o := &owners[i]
		c.uv(&o.Fills)
		c.uv(&o.MSHRSteals)
		c.uv(&o.DelayedFills)
		c.uv(&o.DelayCycles)
		c.uv(&o.SpecDropped)
		c.uv(&o.CrossEvictionsSuffered)
		c.uv(&o.CrossEvictionsCaused)
	}
}

func (c *codec) bpu(b *BPUState) {
	t := &b.TAGE
	c.i8s(&t.Base)
	tables := items(c, &t.Tables, 1)
	for ti := range tables {
		tbl := items(c, &tables[ti], 3)
		for i := range tbl {
			c.u16(&tbl[i].Tag)
			c.i8(&tbl[i].Ctr)
			c.u8(&tbl[i].Useful)
		}
	}
	c.bools(&t.HistBits)
	c.vi(&t.HistHead)
	uvars(c, &t.IdxFold)
	uvars(c, &t.TagFold)
	uvars(c, &t.Tg2Fold)
	c.i8(&t.UseAltOnNa)
	c.uv(&t.AllocSeed)

	it := &b.ITTAGE
	deltas(c, &it.Base)
	itables := items(c, &it.Tables, 1)
	for ti := range itables {
		tbl := items(c, &itables[ti], 4)
		for i := range tbl {
			c.u16(&tbl[i].Tag)
			c.addr(&tbl[i].Target)
			c.i8(&tbl[i].Ctr)
			c.u8(&tbl[i].Useful)
		}
	}
	c.bools(&it.HistBits)
	c.vi(&it.HistHead)
	uvars(c, &it.IdxFold)
	uvars(c, &it.TagFold)
	c.uv(&it.AllocSeed)

	bt := &b.BTB
	c.vi(&bt.Sets)
	c.vi(&bt.Ways)
	ents := items(c, &bt.Entries, 5)
	var prevTag uint64
	var prevTgt isa.Addr
	for i := range ents {
		en := &ents[i]
		c.bool(&en.Valid)
		delta(c, &en.Tag, &prevTag)
		delta(c, &en.Target, &prevTgt)
		c.kind(&en.Kind)
		c.u32(&en.LRU)
	}
	c.u32(&bt.Tick)
	c.uv(&bt.Lookups)
	c.uv(&bt.Hits)

	deltas(c, &b.RAS.Entries)
	c.vi(&b.RAS.Top)
	c.vi(&b.RAS.Depth)

	s := &b.Stats
	c.uv(&s.CondBranches)
	c.uv(&s.CondMispredict)
	c.uv(&s.BTBLookups)
	c.uv(&s.BTBMissTaken)
	c.uv(&s.IndBranches)
	c.uv(&s.IndMispredict)
	c.uv(&s.Returns)
	c.uv(&s.RetMispredict)
}

func (c *codec) iag(g *IAGState) {
	c.source(&g.Oracle)
	if w := opt(c, &g.Wrong); w != nil {
		c.source(w)
	}
	c.bool(&g.PendingMispredict)
}

func (c *codec) source(s *SourceState) {
	c.str(&s.Kind)
	if w := opt(c, &s.Walker); w != nil {
		c.uv(&w.Rng)
		deltas(c, &w.Stack)
		uvars(c, &w.LoopCnt)
		c.vi(&w.CurBlock)
		c.vi(&w.InstIdx)
		c.addr(&w.LostPC)
		c.bool(&w.WrongPath)
		c.vi(&w.DispatchCenter)
		c.uv(&w.Count)
	}
	if cs := opt(c, &s.ChampSim); cs != nil {
		c.uv(&cs.Count)
		c.bool(&cs.Primed)
		dec := items(c, &cs.Decode, 6)
		prevSlot := 0
		for i := range dec {
			en := &dec[i]
			delta(c, &en.Slot, &prevSlot)
			c.addr(&en.PC)
			c.u8(&en.Size)
			c.u8(&en.Kind)
			c.bool(&en.Taken)
			c.addr(&en.Target)
		}
		deltas(c, &cs.RAS)
		c.addr(&cs.PC)
	}
}

func (c *codec) episode(ep *EpisodeState) {
	c.addr(&ep.Line)
	c.bool(&ep.WrongPath)
	c.bool(&ep.Missed)
	c.u8(&ep.ServedBy)
	c.sv(&ep.FetchCycle)
	c.sv(&ep.DoneCycle)
	c.vi(&ep.Starve)
	c.bool(&ep.BackendEmpty)
	c.bool(&ep.WasPrefetch)
	c.bool(&ep.Processed)
	c.addr(&ep.ResteerTrigger)
	c.bool(&ep.ResteerWasReturn)
	c.i32(&ep.Refs)
}

func (c *codec) inst(in *isa.Inst) {
	c.addr(&in.PC)
	c.u8(&in.Size)
	c.kind(&in.Kind)
	c.bool(&in.Taken)
	c.addr(&in.Target)
}

func (c *codec) ftqEntry(f *FTQEntryState) {
	insts := items(c, &f.Insts, 5)
	for i := range insts {
		c.inst(&insts[i])
	}
	c.addr(&f.Start)
	deltas(c, &f.Lines)
	c.bool(&f.WrongPath)
	c.bool(&f.HasBranch)
	c.bool(&f.PredTaken)
	c.addr(&f.PredTarget)
	c.bool(&f.PredBTBHit)
	c.bool(&f.Mispredict)
	c.u8(&f.Cause)
	c.bool(&f.ResolveAtDecode)
	c.addr(&f.CorrectTarget)
	c.addr(&f.ShadowTrigger)
	c.bool(&f.ShadowWasReturn)
	eps := items(c, &f.Episodes, 1)
	for i := range eps {
		c.vi(&eps[i])
	}
	c.sv(&f.ReadyAt)
}

func (c *codec) uops(p *[]UopState) {
	us := items(c, p, 8)
	for i := range us {
		u := &us[i]
		c.inst(&u.Inst)
		c.uv(&u.Seq)
		c.bool(&u.WrongPath)
		c.vi(&u.Episode)
		c.bool(&u.Mispredict)
		c.bool(&u.ResolveAtDecode)
		c.u8(&u.Cause)
		c.addr(&u.CorrectTarget)
		c.addr(&u.TriggerBlock)
		c.bool(&u.IsMemOp)
		c.addr(&u.DataLine)
		c.sv(&u.DoneAt)
		c.sv(&u.AvailableAt)
	}
}

func (c *codec) requests(p *[]RequestState) {
	rs := items(c, p, 2)
	var prev isa.Addr
	for i := range rs {
		delta(c, &rs[i].Line, &prev)
		c.u8(&rs[i].Trigger)
	}
}

func (c *codec) queue(q *QueueState) {
	c.requests(&q.Entries)
	s := &q.Stats
	c.uv(&s.Enqueued)
	c.uv(&s.DroppedQueueFull)
	c.uv(&s.Issued)
	c.uv(&s.DroppedPresent)
	c.uv(&s.DroppedMSHR)
	for i := range s.ByTrigger {
		c.uv(&s.ByTrigger[i])
	}
}

func (c *codec) prefetcher(p *PrefetcherState) {
	c.str(&p.Kind)
	if s := opt(c, &p.PDIP); s != nil {
		c.pdip(s)
	}
	if s := opt(c, &p.EIP); s != nil {
		c.eip(s)
	}
	if s := opt(c, &p.RDIP); s != nil {
		c.rdip(s)
	}
	if s := opt(c, &p.FNLMMA); s != nil {
		c.fnlmma(s)
	}
	if s := opt(c, &p.NextLine); s != nil {
		c.vi(&s.Degree)
		c.uv(&s.Emitted)
		c.requests(&s.Pending)
	}
}

func (c *codec) pdip(p *PDIPState) {
	// Entry and target totals lead the sets so decoding can slab-allocate
	// the whole table in two makes instead of one per set/entry (the PDIP
	// table decodes as tens of thousands of tiny slices otherwise). The
	// slabs are the codec's one direction-specific step.
	var totE, totT int
	for _, set := range p.Sets {
		totE += len(set)
		for i := range set {
			totT += len(set[i].Targets)
		}
	}
	sets := items(c, &p.Sets, 1)
	c.count(&totE, 4)
	c.count(&totT, 5)
	var slabE []PDIPEntryState
	var slabT []PDIPTargetState
	if !c.enc {
		slabE = make([]PDIPEntryState, totE)
		slabT = make([]PDIPTargetState, totT)
	}
	for si := range sets {
		set := carve(c, &sets[si], &slabE, 4)
		for i := range set {
			en := &set[i]
			c.bool(&en.Valid)
			c.u32(&en.Tag)
			c.u32(&en.LRU)
			ts := carve(c, &en.Targets, &slabT, 5)
			for j := range ts {
				t := &ts[j]
				c.bool(&t.Valid)
				c.addr(&t.Base)
				c.u8(&t.Mask)
				c.u8(&t.Trig)
				c.u32(&t.LRU)
			}
		}
	}
	if len(slabE) != 0 || len(slabT) != 0 {
		c.fail("pdip declared totals exceed actual entries")
	}
	c.u32(&p.Tick)
	c.uv(&p.Rng)
	s := &p.Stats
	c.uv(&s.InsertAttempts)
	c.uv(&s.InsertFiltered)
	c.uv(&s.InsertNoTrigger)
	c.uv(&s.InsertReturnSkipped)
	c.uv(&s.Inserted)
	c.uv(&s.MaskMerged)
	c.uv(&s.Lookups)
	c.uv(&s.Hits)
}

func (c *codec) eip(p *EIPState) {
	hist := items(c, &p.Hist, 2)
	var prev isa.Addr
	for i := range hist {
		delta(c, &hist[i].Line, &prev)
		c.sv(&hist[i].Cycle)
	}
	c.vi(&p.Head)
	c.vi(&p.Size)
	sets := items(c, &p.Sets, 1)
	for si := range sets {
		set := items(c, &sets[si], 4)
		for i := range set {
			en := &set[i]
			c.bool(&en.Valid)
			c.u32(&en.Tag)
			c.u32(&en.LRU)
			deltas(c, &en.Dsts)
		}
	}
	anal := items(c, &p.Anal, 2)
	prev = 0
	for i := range anal {
		delta(c, &anal[i].Src, &prev)
		deltas(c, &anal[i].Dsts)
	}
	c.u32(&p.Tick)
	s := &p.Stats
	c.uv(&s.Entangled)
	c.uv(&s.NoSource)
	c.uv(&s.Lookups)
	c.uv(&s.Hits)
}

func (c *codec) rdip(p *RDIPState) {
	sets := items(c, &p.Sets, 1)
	for si := range sets {
		set := items(c, &sets[si], 4)
		for i := range set {
			en := &set[i]
			c.bool(&en.Valid)
			c.u32(&en.Tag)
			c.u32(&en.LRU)
			deltas(c, &en.Lines)
		}
	}
	c.u32(&p.Tick)
	deltas(c, &p.RAS)
	c.uv(&p.Sig)
	c.requests(&p.Pending)
	s := &p.Stats
	c.uv(&s.ContextSwitches)
	c.uv(&s.Recorded)
	c.uv(&s.Hits)
}

func (c *codec) fnlmma(p *FNLMMAState) {
	c.raw(&p.Worth)
	uvars(c, &p.MMATag)
	deltas(c, &p.MMADst)
	deltas(c, &p.MissRing)
	c.vi(&p.MissHead)
	c.requests(&p.Pending)
	s := &p.Stats
	c.uv(&s.FNLEmitted)
	c.uv(&s.MMAEmitted)
	c.uv(&s.Trained)
}
