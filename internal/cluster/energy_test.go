package cluster

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"willow/internal/power"
)

// energyConfig is a shortened paper run with enough pressure to shed
// demand (so every energy figure is non-trivial) and a diurnal profile
// so consumption actually varies.
func energyConfig(u float64, shards int) Config {
	cfg := shortConfig(u)
	cfg.DemandProfile = power.Sine{Base: 1, Amplitude: 0.4, Period: 60}
	cfg.Core.Shards = shards
	cfg.Core.EnergyEvents = true
	return cfg
}

// TestEnergyShardInvariance pins the acceptance criterion: the full
// energy report — fleet, per-rack, per-class, every float — is
// byte-identical for Config.Shards 1 and 4 (and 2, for good measure).
func TestEnergyShardInvariance(t *testing.T) {
	var want string
	for _, shards := range []int{1, 2, 4} {
		res, err := Run(energyConfig(0.8, shards))
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%+v", res.Energy)
		if shards == 1 {
			want = got
			if res.Energy.Fleet.Joules <= 0 || res.Energy.Fleet.WorkJoules <= 0 {
				t.Fatalf("trivial energy report: %s", got)
			}
			if len(res.Energy.Racks) == 0 || len(res.Energy.Classes) == 0 {
				t.Fatalf("missing rack/class breakdown: %s", got)
			}
			continue
		}
		if got != want {
			t.Errorf("shards=%d energy report diverged:\n got %s\nwant %s", shards, got, want)
		}
	}
}

// TestEnergyReportConsistency checks the rolled-up report against the
// run's other measurements: joules equal the whole-run consumed
// watt-ticks × TickSeconds, and shed joules match DroppedWattTicks.
func TestEnergyReportConsistency(t *testing.T) {
	cfg := energyConfig(0.9, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Energy
	if e.TickSeconds != 1 {
		t.Errorf("TickSeconds = %v, want default 1", e.TickSeconds)
	}
	if got, want := e.Fleet.ShedJoules, res.DroppedWattTicks*e.TickSeconds; math.Abs(got-want) > 1e-9*(want+1) {
		t.Errorf("shed joules %v, want %v", got, want)
	}
	var rackJ float64
	for _, r := range e.Racks {
		rackJ += r.Totals.Joules
	}
	if math.Abs(rackJ-e.Fleet.Joules) > 1e-9*e.Fleet.Joules {
		t.Errorf("rack joules sum %v != fleet %v", rackJ, e.Fleet.Joules)
	}
	if wpj := e.Fleet.WorkPerJoule(); wpj <= 0 || wpj >= 1 {
		t.Errorf("work/joule = %v, want in (0, 1) for a fleet with a static floor", wpj)
	}
}

// energyReportPins holds, per golden scenario, the SHA-256 of the run's
// energy report and per-priority service sums (energyPinDigest). They
// were captured on the code whose consume merge folded service and
// energy per server through the Server objects; any restructuring of
// those folds must reproduce these bits exactly.
var energyReportPins = map[string]string{
	"async":           "8191c5481ad232c23b7a4aa0bb6238e7c32af9536df96648c8a40a7822e88267",
	"chaos-heavy":     "dc76124454bc9b82183b2a9ddf21746e021c39e403ff8515e89c739078b8aa9c",
	"chaos-light":     "b23c41a54a82581e2fd2ab4ebfab1e000315e4771b88946ceb501f97fd176cc8",
	"chaos-medium":    "382003d1f8b39a027c5a6e5a3c5471394a9d603938729f04e976ecb48757ef23",
	"diurnal":         "9d059cf440a2e65d6befe477cffbd6983789ac9b63855f5cd98ad04d0070a72d",
	"green":           "f497d72e181a5d929ea9583f53d6d0ffa2faa6683e4e4c1c283488fb191fde54",
	"hetero":          "ed9cdc50b58cb718a5b2ee6a19d05f8b7689334cc0f6fba71dcf499a10c8c994",
	"ipc":             "1eb6b43e622fa70dfbf327715827d6e8c16639424e50951f2125bad5a65c47a6",
	"local-only":      "08415f9294fb924d0a87eda290b0a85d5922ffa34b719b972cf3386a99dd6268",
	"paper-u30":       "23d16019a5b88acc136e1980f008e65ff05a309a7543fa665f2fb676dd89d3cf",
	"paper-u50":       "722bbd20df7a51ff9d599cba922497bfad3d1021a9561978cf8a47dd4728aae9",
	"paper-u70":       "07b9f81c698379f8bc308d6dcbe610e8d7c512380a6a460928de26bbc42f3241",
	"paper-u90":       "08bfd78ff5bce45466bfbfa88fc73ea0260595f5709d69b206fad14fde44c5b7",
	"policy-integral": "c1e61be7489807ede3c59b3d5990b4c305edf0abad820a99a3eb1c79bd6ba877",
	"policy-mpc":      "f522f27fcce8217bbea3e4f12c3a4d9eeb75117095d940d1aada26e23249a563",
	"qos":             "d4264f2e8652b725cdfad6a70d1b479fd7592d53fd1f9f9dfcc53e0ba47ebca9",
	"resilient":       "ede6a402577990eb495309ff80449110ba3db7b898475e95a75745b97ef209ca",
	"sensor-heavy":    "a20cd653a945c658b0bb35780ffafc087f0ac12638a2ade4be90976d7ef5926e",
	"sensor-light":    "f9278f3985925e05939c66c646d1b5ebc3df2b4210db93a53f13a0a59befee24",
	"sensor-medium":   "038f5688c45f185d13fa2eb5f894091b660aed857bd6f39965132c9af123b206",
	"transfer":        "1ee307e598d560faf3ad65efb46041a50d10b30b9cc7e03b7a5248ba4fbb2159",
}

// energyPinDigest digests what the golden Result hash leaves out: the
// full energy report, and the per-priority demand and service sums.
func energyPinDigest(r *Result) string {
	return shaHex([]byte(fmt.Sprintf("%+v\n%+v\n%+v", r.Energy, r.Stats.DemandByPriority, r.Stats.ServedByPriority)))
}

// TestEnergyReportPin holds the energy report and the per-priority
// service sums of every golden scenario, with energy events on, to
// fixed digests at shards 1 and 3 (an uneven plan on the 18-server
// fleet). encodeResult strips the energy report, so without this pin
// only cross-shard equality would hold it.
func TestEnergyReportPin(t *testing.T) {
	configs := goldenConfigs(t)
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(energyReportPins) != len(names) {
		t.Errorf("%d pinned scenarios for %d golden scenarios", len(energyReportPins), len(names))
	}
	for _, name := range names {
		for _, shards := range []int{1, 3} {
			cfg := configs[name]
			cfg.Core.EnergyEvents = true
			cfg.Core.Shards = shards
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := energyPinDigest(r), energyReportPins[name]; got != want {
				t.Errorf("%s shards=%d: energy digest %s, want %s", name, shards, got, want)
			}
		}
	}
}
