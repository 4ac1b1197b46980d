package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzBinaryCheckpointDecode throws arbitrary bytes at the decode path —
// the exact bytes an on-disk checkpoint file feeds it. The decoder must
// never panic or over-allocate on hostile input (truncated sections, lying
// counts, bad intern refs, foreign formats such as old gzip files), and
// anything it does accept must re-encode canonically: encode(decode(b))
// decodes again to the same bytes, the property the content-addressed
// store depends on.
func FuzzBinaryCheckpointDecode(f *testing.F) {
	// Each state seeds its full encoding and that encoding cut off
	// mid-body, so mutations start from both sides of the bounds checks.
	seed := func(st *State) {
		var buf bytes.Buffer
		if err := Encode(&buf, st); err != nil {
			f.Fatal(err)
		}
		b := buf.Bytes()
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	seed(sampleState())
	for _, kind := range []string{"none", "eip", "rdip", "fnlmma", "nextline"} {
		st := sampleState()
		st.Prefetcher = samplePrefetcher(kind)
		seed(st)
	}
	minimal := &State{Version: FormatVersion}
	minimal.IAG.Oracle = SourceState{Kind: SourceCFG, Walker: &WalkerState{}}
	seed(minimal)
	var sock bytes.Buffer
	if err := EncodeSocket(&sock, sampleSocketState()); err != nil {
		f.Fatal(err)
	}
	f.Add(sock.Bytes())
	f.Add([]byte("PDCK"))
	f.Add([]byte{0x1f, 0x8b, 0x00})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeBytes(data)
		if err != nil {
			return // rejected, and did not panic: fine
		}
		var buf bytes.Buffer
		if err := Encode(&buf, st); err != nil {
			t.Fatalf("re-encode of an accepted decode failed: %v", err)
		}
		st2, err := DecodeBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		var buf2 bytes.Buffer
		if err := Encode(&buf2, st2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Error("decode→encode is not canonical: two re-encode passes disagree")
		}
	})
}

// FuzzBinarySocketDecode is the socket-stream sibling: the two decoders
// share the framing machinery but disagree on the kind byte, so each
// must reject the other's streams cleanly.
func FuzzBinarySocketDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodeSocket(&buf, sampleSocketState()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	buf = bytes.Buffer{}
	if err := Encode(&buf, sampleState()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeSocket(bytes.NewReader(data))
		if err != nil {
			return
		}
		var a bytes.Buffer
		if err := EncodeSocket(&a, st); err != nil {
			t.Fatalf("re-encode of an accepted socket decode failed: %v", err)
		}
		st2, err := DecodeSocket(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("canonical socket re-encoding does not decode: %v", err)
		}
		var b bytes.Buffer
		if err := EncodeSocket(&b, st2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Error("socket decode→encode is not canonical: two re-encode passes disagree")
		}
	})
}
