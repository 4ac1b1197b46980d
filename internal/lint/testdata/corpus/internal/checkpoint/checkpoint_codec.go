// The corpus codec: it writes every State field it decodes. None of
// those writes may count as capture coverage, and its own scratch struct
// is not reachable from State, so it is not a mirror struct. No markers
// here: any diagnostic on this file is a regression.
package checkpoint

// codec is decoder scratch state, never serialized.
type codec struct {
	buf []byte
	off int
}

func (c *codec) next() int64 {
	v := int64(c.buf[c.off])
	c.off++
	return v
}

// Decode rebuilds a State from b.
func Decode(b []byte) State {
	c := &codec{buf: b}
	var st State
	st.Cyc = c.next()
	st.Decoded = c.next()
	return st
}
