package cooling

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMooreCOPCurve(t *testing.T) {
	// Anchor values from the published curve.
	if got := MooreCOP(15); math.Abs(got-(0.0068*225+0.0008*15+0.458)) > 1e-12 {
		t.Errorf("COP(15) = %v", got)
	}
	// COP improves with supply temperature.
	if MooreCOP(40) <= MooreCOP(25) {
		t.Error("COP not increasing in temperature")
	}
	if MooreCOP(25) <= 0 {
		t.Error("COP not positive")
	}
}

func TestNewPlantValidation(t *testing.T) {
	if _, err := NewPlant([]Zone{{Name: "empty", SupplyTemp: 25}}); err == nil {
		t.Error("zone with no servers accepted")
	}
	if _, err := NewPlant([]Zone{
		{Name: "a", SupplyTemp: 25, Servers: []int{0, 1}},
		{Name: "b", SupplyTemp: 40, Servers: []int{1}},
	}); err == nil {
		t.Error("overlapping zones accepted")
	}
}

func TestPaperZones(t *testing.T) {
	zones := PaperZones()
	if len(zones) != 2 {
		t.Fatalf("%d zones", len(zones))
	}
	if len(zones[0].Servers) != 14 || len(zones[1].Servers) != 4 {
		t.Errorf("zone sizes %d/%d, want 14/4", len(zones[0].Servers), len(zones[1].Servers))
	}
	if zones[0].SupplyTemp != 25 || zones[1].SupplyTemp != 40 {
		t.Error("zone temperatures wrong")
	}
	if _, err := NewPlant(zones); err != nil {
		t.Errorf("paper zones invalid: %v", err)
	}
}

func TestCoolingPowerArithmetic(t *testing.T) {
	plant, err := NewPlant([]Zone{
		{Name: "a", SupplyTemp: 25, Servers: []int{0}},
		{Name: "b", SupplyTemp: 40, Servers: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	plant.FanOverhead = 0
	plant.FixedPower = 10
	heat := []float64{100, 200}
	want := 10 + 100/MooreCOP(25) + 200/MooreCOP(40)
	if got := plant.CoolingPower(heat); math.Abs(got-want) > 1e-9 {
		t.Errorf("CoolingPower = %v, want %v", got, want)
	}
}

func TestWarmZoneIsCheaperToCool(t *testing.T) {
	plant, err := NewPlant(PaperZones())
	if err != nil {
		t.Fatal(err)
	}
	// The same 100 W of heat: in the cool zone vs the hot zone.
	inCool := make([]float64, 18)
	inCool[0] = 100
	inHot := make([]float64, 18)
	inHot[17] = 100
	if plant.CoolingPower(inCool) <= plant.CoolingPower(inHot) {
		t.Error("heat in the 25 °C zone should cost more cooling power than in the 40 °C zone")
	}
}

func TestPUE(t *testing.T) {
	plant, err := NewPlant(PaperZones())
	if err != nil {
		t.Fatal(err)
	}
	heat := make([]float64, 18)
	for i := range heat {
		heat[i] = 300
	}
	pue := plant.PUE(heat)
	if pue <= 1 || pue > 2 {
		t.Errorf("PUE = %v, want a plausible (1, 2]", pue)
	}
	if got := plant.PUE(make([]float64, 18)); got != 1 {
		t.Errorf("zero-IT PUE = %v, want 1", got)
	}
}

func TestOutOfRangeServersIgnored(t *testing.T) {
	plant, err := NewPlant([]Zone{{Name: "a", SupplyTemp: 25, Servers: []int{0, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	plant.FanOverhead = 0
	// Only index 0 exists in the slice; index 5 must be ignored.
	if got, want := plant.CoolingPower([]float64{40}), 40/MooreCOP(25); math.Abs(got-want) > 1e-9 {
		t.Errorf("CoolingPower = %v, want %v", got, want)
	}
}

// Property: cooling power is monotone in heat and non-negative.
func TestCoolingMonotoneQuick(t *testing.T) {
	plant, err := NewPlant(PaperZones())
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw [18]uint8, bump uint8, idx uint8) bool {
		heat := make([]float64, 18)
		for i, r := range raw {
			heat[i] = float64(r)
		}
		base := plant.CoolingPower(heat)
		if base < 0 {
			return false
		}
		heat[int(idx)%18] += float64(bump)
		return plant.CoolingPower(heat) >= base-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkCoolingPower(b *testing.B) {
	plant, err := NewPlant(PaperZones())
	if err != nil {
		b.Fatal(err)
	}
	heat := make([]float64, 18)
	for i := range heat {
		heat[i] = float64(150 + i*10)
	}
	for i := 0; i < b.N; i++ {
		plant.CoolingPower(heat)
	}
}
