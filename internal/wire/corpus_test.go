package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corpusDir is the seed corpus `make fuzz` starts from: real encoded
// frames, so fuzzing explores mutations of valid protocol traffic
// instead of spending its budget rediscovering the framing from empty
// input.
const corpusDir = "testdata/fuzz/FuzzDecode"

// corpusPackets are the frames checked into the seed corpus: one of each
// packet type (from samplePackets), plus boundary shapes — zero values,
// saturated fields and an all-colors LED sweep.
func corpusPackets() []Packet {
	pkts := samplePackets()
	pkts = append(pkts,
		&UsageStart{},
		&UsageStart{UID: 65535, Seq: 255, Sensor: 255, NodeTime: 4294967295, Hits: 255, Threshold: 65535},
		&UsageEnd{UID: 1, Seq: 1, NodeTime: 1, DurationMs: 4294967295},
		&LEDCommand{UID: 2, Seq: 2, Color: LEDRed, Blinks: 255, PeriodMs: 65535},
		&LEDCommand{UID: 3, Seq: 3, Color: LEDRed, Blinks: 1, PeriodMs: 1},
		&Heartbeat{UID: 65535, Seq: 255, UptimeMs: 4294967295, Battery: 100},
		&Hello{UID: 1, Seq: 1, HelloVersion: HelloVersion},
		&Hello{UID: 65535, Seq: 65535, HelloVersion: HelloVersion, Household: strings.Repeat("h", MaxHousehold)},
		&PeerHello{PeerVersion: PeerHelloVersion},
		&PeerHello{PeerVersion: PeerHelloVersion, Epoch: 4294967295, PeerAddr: strings.Repeat("p", MaxAddr), NodeAddr: strings.Repeat("n", MaxAddr)},
		&Redirect{Seq: 65535, Addr: strings.Repeat("r", MaxAddr)},
		&Replicate{Seq: 65535, Flags: FlagFsync, NameLen: MaxHousehold, Size: MaxBlob, CRC: 4294967295},
	)
	return pkts
}

// rawFrame assembles a frame byte-by-byte with a correct CRC, bypassing
// Encode's checks — for seeds that are well-formed at the framing layer
// but must still be rejected.
func rawFrame(typ byte, payload []byte) []byte {
	frame := append([]byte{Magic, Version, typ, byte(len(payload))}, payload...)
	crc := CRC16(frame[1:])
	return binary.BigEndian.AppendUint16(frame, crc)
}

// retiredSeedSlots are seed numbers whose frames left the protocol (the
// former 0x0A Handoff and 0x0B RangeClaim). They stay unused so every
// remaining seed file keeps its name when the corpus is regenerated.
var retiredSeedSlots = map[int]bool{9: true, 10: true, 23: true, 24: true}

// hostileSeeds are corpus entries Decode must reject (without panicking):
// hand-built frames exercising every rejection path, so fuzzing starts
// from the hostile side of each boundary too.
func hostileSeeds() []struct {
	Name  string
	Frame []byte
} {
	good, _ := Encode(&Heartbeat{UID: 1, Seq: 1, UptimeMs: 1, Battery: 50})
	truncated := append([]byte(nil), good[:5]...)
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 0x00
	badVersion := append([]byte(nil), good...)
	badVersion[1] = 99
	badCRC := append([]byte(nil), good...)
	badCRC[len(badCRC)-1] ^= 0xFF
	oversized := append([]byte{Magic, Version, byte(TypeHeartbeat), 255}, bytes.Repeat([]byte{0xAA}, 255)...)
	return []struct {
		Name  string
		Frame []byte
	}{
		{"truncated", truncated},
		{"bad-magic", badMagic},
		{"bad-version", badVersion},
		{"bad-crc", badCRC},
		{"oversized-length", oversized},
		{"unknown-type", rawFrame(0x7F, []byte{1, 2, 3, 4})},
		{"length-mismatch", rawFrame(byte(TypeAck), []byte{1, 2, 3})},
		{"led-bad-color", rawFrame(byte(TypeLEDCommand), []byte{0, 2, 0, 3, 7, 5, 0, 250})},
		{"battery-overflow", rawFrame(byte(TypeHeartbeat), []byte{0, 1, 0, 1, 0, 0, 0, 1, 101})},
		{"empty-payload", rawFrame(byte(TypeUsageStart), nil)},
		{"hello-version-zero", rawFrame(byte(TypeHello), []byte{0, 1, 0, 1, 0, 2, 'h', 'h'})},
		{"hello-truncated-household", rawFrame(byte(TypeHello), []byte{0, 1, 0, 1, 1, 40, 'h'})},
		{"peerhello-version-zero", rawFrame(byte(TypePeerHello), []byte{0, 0, 0, 0, 1, 3, 'a', ':', '1', 3, 'a', ':', '2'})},
		{"peerhello-truncated-addr", rawFrame(byte(TypePeerHello), []byte{1, 0, 0, 0, 1, 20, 'x'})},
		{"redirect-addr-overflow", rawFrame(byte(TypeRedirect), append([]byte{0, 1, 29}, bytes.Repeat([]byte{'x'}, 29)...))},
		{"replicate-bad-flags", rawFrame(byte(TypeReplicate), []byte{0, 1, 0x82, 3, 0, 0, 0, 1, 0, 0, 0, 0})},
		{"replicate-blob-overflow", rawFrame(byte(TypeReplicate), []byte{0, 1, 0, 3, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})},
		{"reserved-type-0x0a", rawFrame(0x0A, []byte{0, 1, 0, 0, 0, 2, 0, 3, 0, 0, 0, 1, 0, 0, 0, 0})},
		{"reserved-type-0x0b", rawFrame(0x0B, []byte{0, 1, 0, 0, 0, 2, 0, 9, 0, 3, 3, 'a', ':', '1'})},
	}
}

// TestWriteFuzzCorpus regenerates the seed corpus. It is a no-op unless
// COREDA_WRITE_CORPUS=1, so the checked-in files only change on purpose:
//
//	COREDA_WRITE_CORPUS=1 go test ./internal/wire -run TestWriteFuzzCorpus
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("COREDA_WRITE_CORPUS") != "1" {
		t.Skip("set COREDA_WRITE_CORPUS=1 to regenerate the seed corpus")
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, frame []byte) {
		// The go fuzzing corpus file format: a version header plus one
		// Go-syntax literal per fuzz argument.
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame)
		if err := os.WriteFile(filepath.Join(corpusDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	slot := 0
	for i, p := range corpusPackets() {
		for retiredSeedSlots[slot] {
			slot++
		}
		frame, err := Encode(p)
		if err != nil {
			t.Fatalf("encoding corpus packet %d (%v): %v", i, p.Type(), err)
		}
		write(fmt.Sprintf("seed-%02d-%s", slot, p.Type()), frame)
		slot++
	}
	for i, h := range hostileSeeds() {
		write(fmt.Sprintf("hostile-%02d-%s", i, h.Name), h.Frame)
	}
}

// TestSeedCorpusDecodes pins the corpus contract. "seed-" entries must
// hold a decodable frame that round-trips bit-exactly — the same property
// FuzzDecode asserts. "hostile-" entries must be rejected by Decode, and
// a Reader fed a hostile entry followed by a valid frame must still
// resynchronize onto the valid frame.
func TestSeedCorpusDecodes(t *testing.T) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatalf("seed corpus missing (run COREDA_WRITE_CORPUS=1 go test -run TestWriteFuzzCorpus): %v", err)
	}
	valid, hostile := 0, 0
	recovery, _ := Encode(&Ack{UID: 7, Seq: 7})
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(corpusDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var frame []byte
		if _, err := fmt.Sscanf(string(data), "go test fuzz v1\n[]byte(%q)\n", &frame); err != nil {
			t.Errorf("%s: not a v1 single-[]byte corpus file: %v", e.Name(), err)
			continue
		}
		switch {
		case strings.HasPrefix(e.Name(), "hostile-"):
			hostile++
			if p, err := Decode(frame); err == nil {
				t.Errorf("%s: hostile seed decoded to %+v, want rejection", e.Name(), p)
			}
			// The stream reader must skip the hostile bytes and still
			// deliver valid traffic behind them. Two recovery frames: a
			// hostile header may legitimately swallow bytes of the first
			// while resyncing, but at least one ack must come through.
			stream := append([]byte(nil), frame...)
			stream = append(stream, recovery...)
			stream = append(stream, recovery...)
			r := NewReader(bytes.NewReader(stream))
			recovered := false
			for {
				p, err := readPacket(r)
				if err != nil {
					break
				}
				if _, ok := p.(*Ack); ok {
					recovered = true
					break
				}
			}
			if !recovered {
				t.Errorf("%s: reader never resynced past hostile seed", e.Name())
			}
		default:
			valid++
			p, err := Decode(frame)
			if err != nil {
				t.Errorf("%s: seed does not decode: %v", e.Name(), err)
				continue
			}
			re, err := Encode(p)
			if err != nil || string(re) != string(frame) {
				t.Errorf("%s: seed does not round-trip (err=%v)", e.Name(), err)
			}
		}
	}
	if want := len(corpusPackets()); valid != want {
		t.Errorf("corpus has %d valid seeds, want %d: regenerate with COREDA_WRITE_CORPUS=1", valid, want)
	}
	if want := len(hostileSeeds()); hostile != want {
		t.Errorf("corpus has %d hostile seeds, want %d: regenerate with COREDA_WRITE_CORPUS=1", hostile, want)
	}
}
