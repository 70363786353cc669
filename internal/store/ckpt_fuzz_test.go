package store

import (
	"testing"
)

// FuzzCheckpointDecode throws hostile bytes at the decoder. The
// invariants: never panic, reject a pre-CKPT JSON checkpoint, never accept a blob whose canonical
// re-encoding fails, and round-trip any accepted blob to a semantically
// identical checkpoint. Byte-identity of accepted inputs is NOT
// required — binary.Uvarint tolerates overlong varint encodings, so two
// distinct blobs may decode to one checkpoint; the canonical
// re-encoding is the equality the store (and the fleet digest) actually
// depends on.
func FuzzCheckpointDecode(f *testing.F) {
	valid, err := AppendCheckpoint(nil, testCheckpoint())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:ckptMinSize])
	f.Add([]byte(nil))
	f.Add([]byte("CKPT"))
	f.Add([]byte("CKPT\x01"))
	// A pre-CKPT JSON checkpoint is hostile input like any other.
	legacyJSON := []byte(`{"version":1,"states":1,"actions":1,"q":[0]}`)
	if err := DecodeCheckpoint(new(Checkpoint), legacyJSON); err == nil {
		f.Fatal("decoder accepted a JSON checkpoint")
	}
	f.Add(legacyJSON)
	// Hostile frames: count bombs with valid checksums.
	f.Add(appendCkptCRC([]byte("CKPT\x01\xff\xff\xff\x7f")))
	f.Add(appendCkptCRC([]byte("CKPT\x01\x00\x00\xff\xff\x7f")))
	f.Add(appendCkptCRC([]byte{'C', 'K', 'P', 'T', 1, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0x7F, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0}))
	corrupt := append([]byte{}, valid...)
	corrupt[len(corrupt)/2] ^= 0x20
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		var c Checkpoint
		if err := DecodeCheckpoint(&c, data); err != nil {
			return
		}
		// Accepted: the decode must satisfy the encoder's invariants and
		// survive a canonical round trip.
		canon, err := AppendCheckpoint(nil, &c)
		if err != nil {
			t.Fatalf("accepted blob fails canonical re-encode: %v", err)
		}
		var c2 Checkpoint
		if err := DecodeCheckpoint(&c2, canon); err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		if !checkpointsEqual(&c, &c2) {
			t.Fatalf("canonical round trip changed the checkpoint:\n 1st %+v\n 2nd %+v", &c, &c2)
		}
		// A second canonical encode must be byte-stable.
		canon2, err := AppendCheckpoint(nil, &c2)
		if err != nil {
			t.Fatal(err)
		}
		if string(canon) != string(canon2) {
			t.Fatal("canonical encoding is not byte-stable")
		}
	})
}
