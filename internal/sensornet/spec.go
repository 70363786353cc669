// Package sensornet simulates the PAVENET wireless sensor nodes of the
// paper (Table 1) and the radio path between them and the CoReDA gateway.
//
// The node reproduces the published detection behaviour: each sensor is
// sampled 10 times per second, and a tool is considered "in use" when 3 of
// the last 10 samples surpass a pre-defined threshold — the mechanism that
// "protect[s] detection against accidental operation". Usage reports,
// acknowledgements and LED commands travel over a lossy simulated radio
// using the wire package's frame format, so the full packet codec is
// exercised end to end.
package sensornet

import "time"

// Hardware constants from Table 1 of the paper. RAM/ROM sizes are kept as
// documentation of the budget a real port would have; the EEPROM size
// bounds the node's on-board usage log.
const (
	// SampleRate is the per-sensor sampling rate ("10 times in one
	// second").
	SampleRate = 10
	// SamplePeriod is the interval between samples.
	SamplePeriod = time.Second / SampleRate
	// DetectionHits is how many samples of the window must surpass the
	// threshold for the tool to count as used ("three of these 10").
	DetectionHits = 3
	// DetectionWindow is the number of recent samples considered.
	DetectionWindow = 10

	// RAMSize is the PIC18LF4620's data memory (4 KB).
	RAMSize = 4 * 1024
	// ROMSize is the PIC18LF4620's program memory (64 KB).
	ROMSize = 64 * 1024
	// EEPROMSize is the external EEPROM capacity (16 KB), used for the
	// node's ring log of usage records.
	EEPROMSize = 16 * 1024
	// LEDCount is the number of on-board LEDs.
	LEDCount = 4
)

// DefaultThreshold is the default detection threshold in excitation units;
// the signal generator is calibrated so that 1.0 separates rest noise from
// deliberate gestures.
const DefaultThreshold = 1.0

// Energy model, in abstract charge units. A real PIC18+CC1000 node is
// dominated by radio transmissions; the ratios below reflect that (one
// transmission costs as much as a thousand samples).
const (
	// EnergySample is the cost of one sensor sample.
	EnergySample = 1.0
	// EnergyTX is the cost of transmitting one frame.
	EnergyTX = 1000.0
	// EnergyBlink is the cost of one LED blink.
	EnergyBlink = 200.0
)

// Link-layer parameters of the simulated radio protocol.
const (
	// AckTimeout is how long a sender waits for an acknowledgement
	// before retransmitting.
	AckTimeout = 200 * time.Millisecond
	// MaxRetries is how many times a frame is retransmitted before
	// being dropped.
	MaxRetries = 3
)
