package wire

import (
	"bytes"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the frame decoder: it must never
// panic, and any frame it accepts must re-encode to the same bytes.
func FuzzDecode(f *testing.F) {
	for _, p := range samplePackets() {
		frame, err := Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{Magic})
	f.Add([]byte{Magic, Version, byte(TypeAck), 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		// Accepted frames must round-trip bit-exactly.
		re, err := Encode(p)
		if err != nil {
			t.Fatalf("re-encoding accepted packet: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("round trip changed frame:\n in: % x\nout: % x", data, re)
		}
	})
}

// FuzzReader streams arbitrary bytes through the resynchronizing reader:
// it must terminate (EOF) without panicking regardless of input.
func FuzzReader(f *testing.F) {
	good, _ := Encode(&Heartbeat{UID: 1, Seq: 2, UptimeMs: 3, Battery: 4})
	f.Add(append([]byte{0x00, Magic, 0x13}, good...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var f Frame
		for {
			if err := r.ReadFrame(&f); err != nil {
				return
			}
		}
	})
}
