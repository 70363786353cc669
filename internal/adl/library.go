package adl

import "time"

// Tool IDs of the standard activity library. Each activity owns a disjoint
// ID range so that multiple activities can be deployed on one gateway.
const (
	// Tooth-brushing (Table 2, upper half).
	ToolPasteTube ToolID = 11
	ToolBrush     ToolID = 12
	ToolCup       ToolID = 13
	ToolTowel     ToolID = 14

	// Tea-making (Table 2, lower half).
	ToolTeaBox ToolID = 21
	ToolPot    ToolID = 22 // electronic pot (pressure sensor)
	ToolKettle ToolID = 23
	ToolTeaCup ToolID = 24

	// Hand-washing (generalization example; cf. Boger et al.).
	ToolSoap      ToolID = 31
	ToolFaucet    ToolID = 32
	ToolHandTowel ToolID = 33

	// Medication (generalization example).
	ToolPillBox    ToolID = 41
	ToolWaterGlass ToolID = 42

	// Dressing (multi-routine example from the paper's future work).
	ToolShirt    ToolID = 51
	ToolTrousers ToolID = 52
	ToolSocks    ToolID = 53
	ToolShoes    ToolID = 54
)

// ToothBrushing returns the tooth-brushing activity exactly as instrumented
// in Table 2 of the paper: accelerometers on paste tube, brush, cup and
// towel.
//
// The step durations encode the paper's observation (Table 3) that "Put
// toothpaste on the brush" and especially "Dry with a towel" are short
// gestures and therefore harder to detect with the 3-of-10 threshold rule.
func ToothBrushing() *Activity {
	a := &Activity{
		Name: "tooth-brushing",
		Steps: []Step{
			{Name: "Put toothpaste on the brush", Tool: ToolPasteTube, TypicalDuration: 2 * time.Second, Intensity: 1.05},
			{Name: "Brush the teeth", Tool: ToolBrush, TypicalDuration: 8 * time.Second, Intensity: 2.4},
			{Name: "Gargle with water", Tool: ToolCup, TypicalDuration: 5 * time.Second, Intensity: 2.0},
			{Name: "Dry with a towel", Tool: ToolTowel, TypicalDuration: 1200 * time.Millisecond, Intensity: 1.10},
		},
	}
	a.Tools = map[ToolID]Tool{
		ToolPasteTube: {ID: ToolPasteTube, Name: "paste tube", Sensor: SensorAccelerometer, Picture: "paste-tube.png"},
		ToolBrush:     {ID: ToolBrush, Name: "toothbrush", Sensor: SensorAccelerometer, Picture: "toothbrush.png"},
		ToolCup:       {ID: ToolCup, Name: "cup", Sensor: SensorAccelerometer, Picture: "cup.png"},
		ToolTowel:     {ID: ToolTowel, Name: "towel", Sensor: SensorAccelerometer, Picture: "towel.png"},
	}
	return a
}

// TeaMaking returns the tea-making activity exactly as instrumented in
// Table 2 of the paper: accelerometers on tea-box, kettle and tea-cup, and a
// pressure sensor on the electronic pot.
//
// "Pour hot water into kettle" (the pot press) is the short gesture whose
// extract precision is lowest in Table 3.
func TeaMaking() *Activity {
	a := &Activity{
		Name: "tea-making",
		Steps: []Step{
			{Name: "Put tea-leaf into kettle", Tool: ToolTeaBox, TypicalDuration: 4 * time.Second, Intensity: 2.0},
			{Name: "Pour hot water into kettle", Tool: ToolPot, TypicalDuration: 1100 * time.Millisecond, Intensity: 1.15},
			{Name: "Pour tea into tea cup", Tool: ToolKettle, TypicalDuration: 4 * time.Second, Intensity: 2.2},
			{Name: "Drink a cup of tea", Tool: ToolTeaCup, TypicalDuration: 2200 * time.Millisecond, Intensity: 1.05},
		},
	}
	a.Tools = map[ToolID]Tool{
		ToolTeaBox: {ID: ToolTeaBox, Name: "tea-box", Sensor: SensorAccelerometer, Picture: "tea-box.png"},
		ToolPot:    {ID: ToolPot, Name: "electronic pot", Sensor: SensorPressure, Picture: "pot.png"},
		ToolKettle: {ID: ToolKettle, Name: "kettle", Sensor: SensorAccelerometer, Picture: "kettle.png"},
		ToolTeaCup: {ID: ToolTeaCup, Name: "tea-cup", Sensor: SensorAccelerometer, Picture: "tea-cup.png"},
	}
	return a
}

// HandWashing returns a hand-washing activity, demonstrating the paper's
// fourth design criterion ("easily generalize to other ADLs"): a new
// activity is a pure declaration, no subsystem changes.
func HandWashing() *Activity {
	a := &Activity{
		Name: "hand-washing",
		Steps: []Step{
			{Name: "Turn on the faucet", Tool: ToolFaucet, TypicalDuration: 1500 * time.Millisecond, Intensity: 1.6},
			{Name: "Lather with soap", Tool: ToolSoap, TypicalDuration: 5 * time.Second, Intensity: 2.0},
			{Name: "Dry hands with the towel", Tool: ToolHandTowel, TypicalDuration: 3 * time.Second, Intensity: 1.8},
		},
	}
	a.Tools = map[ToolID]Tool{
		ToolFaucet:    {ID: ToolFaucet, Name: "faucet", Sensor: SensorMotion, Picture: "faucet.png"},
		ToolSoap:      {ID: ToolSoap, Name: "soap", Sensor: SensorAccelerometer, Picture: "soap.png"},
		ToolHandTowel: {ID: ToolHandTowel, Name: "hand towel", Sensor: SensorAccelerometer, Picture: "hand-towel.png"},
	}
	return a
}

// Medication returns a medicine-taking activity (two steps).
func Medication() *Activity {
	a := &Activity{
		Name: "medication",
		Steps: []Step{
			{Name: "Take pills from the pill box", Tool: ToolPillBox, TypicalDuration: 3 * time.Second, Intensity: 1.8},
			{Name: "Drink a glass of water", Tool: ToolWaterGlass, TypicalDuration: 3 * time.Second, Intensity: 1.8},
		},
	}
	a.Tools = map[ToolID]Tool{
		ToolPillBox:    {ID: ToolPillBox, Name: "pill box", Sensor: SensorAccelerometer, Picture: "pill-box.png"},
		ToolWaterGlass: {ID: ToolWaterGlass, Name: "water glass", Sensor: SensorAccelerometer, Picture: "water-glass.png"},
	}
	return a
}

// Dressing returns a dressing activity. Dressing is the paper's motivating
// example for multi-routine planning: a user may put socks on before or
// after trousers, so a single learned routine cannot cover them.
func Dressing() *Activity {
	a := &Activity{
		Name: "dressing",
		Steps: []Step{
			{Name: "Put on the shirt", Tool: ToolShirt, TypicalDuration: 6 * time.Second, Intensity: 1.9},
			{Name: "Put on the trousers", Tool: ToolTrousers, TypicalDuration: 6 * time.Second, Intensity: 1.9},
			{Name: "Put on the socks", Tool: ToolSocks, TypicalDuration: 4 * time.Second, Intensity: 1.7},
			{Name: "Put on the shoes", Tool: ToolShoes, TypicalDuration: 4 * time.Second, Intensity: 1.8},
		},
	}
	a.Tools = map[ToolID]Tool{
		ToolShirt:    {ID: ToolShirt, Name: "shirt", Sensor: SensorAccelerometer, Picture: "shirt.png"},
		ToolTrousers: {ID: ToolTrousers, Name: "trousers", Sensor: SensorAccelerometer, Picture: "trousers.png"},
		ToolSocks:    {ID: ToolSocks, Name: "socks", Sensor: SensorAccelerometer, Picture: "socks.png"},
		ToolShoes:    {ID: ToolShoes, Name: "shoes", Sensor: SensorAccelerometer, Picture: "shoes.png"},
	}
	return a
}
