// Package cooling models the data center's cooling infrastructure — the
// energy cost the paper's future work says a holistic Willow must fold
// into its adaptation ("In order to do a holistic power control, Willow
// must consider the energy consumed by cooling infrastructure as well",
// Section VI).
//
// Every watt a server draws becomes heat the facility must remove. The
// efficiency of removal is the coefficient of performance (COP): watts
// of heat removed per watt of cooling power, which improves with the
// supply (cold-aisle) temperature. We use the chilled-water COP curve of
// Moore et al. (USENIX ATC 2005) — the temperature-aware-placement paper
// Willow cites as [10]:
//
//	COP(T) = 0.0068·T² + 0.0008·T + 0.458
//
// Zones let a facility mix cooling regimes: a tightly chilled 25 °C
// aisle (expensive per watt) and a 40 °C ambient/economizer aisle (cheap
// per watt but thermally tight for the servers — exactly the trade-off
// Willow navigates in Figs. 5–7).
package cooling

import "fmt"

// COPModel maps a zone's supply temperature (°C) to its coefficient of
// performance.
type COPModel func(supplyTempC float64) float64

// MooreCOP is the HP Utility Data Center chilled-water curve used by
// Moore et al. (2005): COP(T) = 0.0068·T² + 0.0008·T + 0.458.
func MooreCOP(t float64) float64 {
	return 0.0068*t*t + 0.0008*t + 0.458
}

// Zone is one cooling domain.
type Zone struct {
	Name string
	// SupplyTemp is the cold-aisle supply temperature, °C.
	SupplyTemp float64
	// Servers lists the server indices cooled by this zone.
	Servers []int
}

// Plant is a facility's cooling system.
type Plant struct {
	Zones []Zone
	COP   COPModel
	// FanOverhead is the air-moving power as a fraction of IT power
	// (burned regardless of chiller efficiency).
	FanOverhead float64
	// FixedPower is the plant's load-independent draw (pumps, controls).
	FixedPower float64
}

// NewPlant returns a plant over the given zones using the Moore COP
// curve, 3 % fan overhead and no fixed draw.
func NewPlant(zones []Zone) (*Plant, error) {
	seen := map[int]bool{}
	for _, z := range zones {
		if len(z.Servers) == 0 {
			return nil, fmt.Errorf("cooling: zone %q cools no servers", z.Name)
		}
		for _, s := range z.Servers {
			if seen[s] {
				return nil, fmt.Errorf("cooling: server %d assigned to two zones", s)
			}
			seen[s] = true
		}
	}
	return &Plant{Zones: zones, COP: MooreCOP, FanOverhead: 0.03}, nil
}

// PaperZones returns the two-zone split of the paper's simulation: the
// 25 °C chilled aisle for servers 1–14 and the 40 °C economizer aisle
// for servers 15–18.
func PaperZones() []Zone {
	cool := Zone{Name: "chilled-25C", SupplyTemp: 25}
	hot := Zone{Name: "economizer-40C", SupplyTemp: 40}
	for i := 0; i < 14; i++ {
		cool.Servers = append(cool.Servers, i)
	}
	for i := 14; i < 18; i++ {
		hot.Servers = append(hot.Servers, i)
	}
	return []Zone{cool, hot}
}

// CoolingPower returns the plant power needed to remove the heat of the
// given per-server IT draw (indexed by server).
func (p *Plant) CoolingPower(perServerWatts []float64) float64 {
	total := p.FixedPower
	var itTotal float64
	for _, z := range p.Zones {
		var heat float64
		for _, s := range z.Servers {
			if s >= 0 && s < len(perServerWatts) {
				heat += perServerWatts[s]
			}
		}
		itTotal += heat
		if cop := p.COP(z.SupplyTemp); cop > 0 {
			total += heat / cop
		}
	}
	return total + itTotal*p.FanOverhead
}

// PUE returns the power usage effectiveness for the given per-server IT
// draw: (IT + cooling) / IT. It returns 1 for zero IT power.
func (p *Plant) PUE(perServerWatts []float64) float64 {
	var it float64
	for _, w := range perServerWatts {
		it += w
	}
	if it <= 0 {
		return 1
	}
	return (it + p.CoolingPower(perServerWatts)) / it
}
