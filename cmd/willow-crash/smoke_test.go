package main

import (
	"strings"
	"testing"

	"willow/internal/obs"
	"willow/internal/server"
)

// validMetrics is a minimal /metrics body that checkMetrics accepts.
const validMetrics = `# TYPE willow_tick gauge
willow_tick 200
# TYPE willow_uptime_seconds gauge
willow_uptime_seconds 1.5
# TYPE willow_energy_joules_total counter
willow_energy_joules_total 1000
# TYPE willow_work_joules_total counter
willow_work_joules_total 500
# TYPE willow_heat_joules_total counter
willow_heat_joules_total 900
# TYPE willow_shed_joules_total counter
willow_shed_joules_total 10
# TYPE willow_work_per_joule gauge
willow_work_per_joule 0.5
# TYPE willow_rack_joules_total counter
willow_rack_joules_total{rack="3"} 400
willow_rack_joules_total{rack="4"} 600
# TYPE willow_hub_published_total counter
willow_hub_published_total 50
# TYPE willow_hub_subscribers gauge
willow_hub_subscribers 0
# TYPE willow_tick_phase_seconds histogram
willow_tick_phase_seconds_count{phase="observe"} 200
willow_tick_phase_seconds_count{phase="allocate"} 200
willow_tick_phase_seconds_count{phase="migrate"} 200
willow_tick_phase_seconds_count{phase="consume"} 200
# TYPE willow_hub_publish_seconds histogram
willow_hub_publish_seconds_count 200
# TYPE willow_snapshot_write_seconds histogram
willow_snapshot_write_seconds_count 0
`

func TestCheckMetrics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, new string // one edit to validMetrics; empty for the valid body
		wantErr  string
	}{
		{name: "valid exposition"},
		{
			name:    "missing family",
			old:     "# TYPE willow_hub_subscribers gauge\nwillow_hub_subscribers 0\n",
			wantErr: "family willow_hub_subscribers",
		},
		{
			name:    "wrong type",
			old:     "# TYPE willow_work_per_joule gauge",
			new:     "# TYPE willow_work_per_joule counter",
			wantErr: `declared "counter", want "gauge"`,
		},
		{
			name:    "racks do not sum to the fleet",
			old:     `willow_rack_joules_total{rack="4"} 600`,
			new:     `willow_rack_joules_total{rack="4"} 500`,
			wantErr: "rack joules sum",
		},
		{
			name:    "zero phase count",
			old:     `willow_tick_phase_seconds_count{phase="migrate"} 200`,
			new:     `willow_tick_phase_seconds_count{phase="migrate"} 0`,
			wantErr: `phase "migrate"`,
		},
		{
			name:    "work per joule zero",
			old:     "willow_work_per_joule 0.5",
			new:     "willow_work_per_joule 0",
			wantErr: "work/joule",
		},
		{
			name:    "work per joule above one",
			old:     "willow_work_per_joule 0.5",
			new:     "willow_work_per_joule 1.5",
			wantErr: "work/joule",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			text := strings.Replace(validMetrics, tc.old, tc.new, 1)
			if tc.old != "" && text == validMetrics {
				t.Fatalf("edit %q matches nothing", tc.old)
			}
			s, err := obs.ParseText(strings.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			err = checkMetrics(s)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid exposition rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("checkMetrics = %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestCheckEfficiency(t *testing.T) {
	joules := func(j float64) server.EnergyFigures { return server.EnergyFigures{Joules: j} }
	good := server.EfficiencyView{
		Tick:        200,
		Ticks:       5000,
		TickSeconds: 1,
		Cumulative:  server.EnergyFigures{Joules: 1000, WorkJoules: 500, WorkPerJoule: 0.5},
		Window:      server.WindowFigures{WindowTicks: 16, EnergyFigures: joules(80)},
		Racks: []server.RackEfficiency{
			{Node: 3, EnergyFigures: joules(400)},
			{Node: 4, EnergyFigures: joules(600)},
		},
		Classes: []server.ClassEfficiency{{Class: "tiny", ServedJoules: 100}},
	}
	if err := checkEfficiency(good); err != nil {
		t.Fatalf("good scoreboard rejected: %v", err)
	}
	bad := good
	bad.Racks = good.Racks[:1] // the rack rows no longer sum to the total
	if err := checkEfficiency(bad); err == nil || !strings.Contains(err.Error(), "rack rows sum") {
		t.Fatalf("checkEfficiency = %v, want a rack-sum error", err)
	}
}
