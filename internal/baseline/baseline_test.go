package baseline

import (
	"testing"

	"willow/internal/cluster"
)

func short(c *cluster.Config) {
	c.Warmup = 50
	c.Ticks = 180
}

func TestConfigureUnknownVariant(t *testing.T) {
	cfg := cluster.PaperConfig(0.5)
	if err := Configure(Variant("bogus"), &cfg); err == nil {
		t.Error("unknown variant accepted")
	}
}

// TestVariantsListed checks that Configure accepts every variant the
// package declares.
func TestVariantsListed(t *testing.T) {
	for _, v := range []Variant{Willow, NoControl, NoMargin, LocalOnly, Centralized, Oracle} {
		cfg := cluster.PaperConfig(0.5)
		if err := Configure(v, &cfg); err != nil {
			t.Errorf("Configure(%s): %v", v, err)
		}
	}
}

func TestCentralizedFlattensHierarchy(t *testing.T) {
	cfg := cluster.PaperConfig(0.5)
	if err := Configure(Centralized, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Fanout) != 1 || cfg.Fanout[0] != 18 {
		t.Errorf("fanout = %v, want [18]", cfg.Fanout)
	}
}

// TestNoControlNeverMigrates: the floor baseline takes no actions and
// consequently drops more demand than Willow under thermal pressure.
func TestNoControlNeverMigrates(t *testing.T) {
	none, err := Run(NoControl, 0.7, short)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(none.Stats.Migrations); got != 0 {
		t.Fatalf("NoControl migrated %d times", got)
	}
	willow, err := Run(Willow, 0.7, short)
	if err != nil {
		t.Fatal(err)
	}
	if willow.DroppedWattTicks >= none.DroppedWattTicks {
		t.Errorf("Willow dropped %v >= NoControl %v — migrations bought nothing",
			willow.DroppedWattTicks, none.DroppedWattTicks)
	}
}

// TestNoMarginChurns: removing the P_min hysteresis produces more
// migrations than the full scheme on the same workload.
func TestNoMarginChurns(t *testing.T) {
	margin, err := Run(Willow, 0.6, short)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := Run(NoMargin, 0.6, short)
	if err != nil {
		t.Fatal(err)
	}
	if len(churn.Stats.Migrations) <= len(margin.Stats.Migrations) {
		t.Errorf("NoMargin migrations %d <= Willow %d — margin shows no effect",
			len(churn.Stats.Migrations), len(margin.Stats.Migrations))
	}
}

// TestLocalOnlyKeepsMigrationsLocal and leaves cross-rack imbalance on
// the table (more dropped demand under thermal pressure).
func TestLocalOnlyKeepsMigrationsLocal(t *testing.T) {
	local, err := Run(LocalOnly, 0.75, short)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range local.Stats.Migrations {
		if !m.Local {
			t.Fatalf("LocalOnly produced a non-local migration: %+v", m)
		}
	}
	full, err := Run(Willow, 0.75, short)
	if err != nil {
		t.Fatal(err)
	}
	if full.DroppedWattTicks > local.DroppedWattTicks {
		t.Errorf("full Willow dropped more (%v) than LocalOnly (%v)",
			full.DroppedWattTicks, local.DroppedWattTicks)
	}
}

// TestCentralizedMatchesQuality: per the paper's Property 2, the
// distributed scheme's solution quality tracks the centralized one —
// dropped demand within a modest factor on the same workload.
func TestCentralizedMatchesQuality(t *testing.T) {
	res, err := Compare([]Variant{Willow, Centralized}, 0.6, short)
	if err != nil {
		t.Fatal(err)
	}
	w := res[Willow]
	c := res[Centralized]
	// Energy served must be comparable (within 5 %).
	ratio := w.TotalEnergy / c.TotalEnergy
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("energy ratio willow/centralized = %v, want ~1", ratio)
	}
}

func TestCompareReturnsAllVariants(t *testing.T) {
	res, err := Compare([]Variant{Willow, NoControl}, 0.5, short)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	if res[Willow] == nil || res[NoControl] == nil {
		t.Error("missing variant result")
	}
}

func BenchmarkWillowVsNoControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Willow, 0.6, short); err != nil {
			b.Fatal(err)
		}
		if _, err := Run(NoControl, 0.6, short); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOracleForesightHelps: under a plunging supply, a one-epoch
// forecast lets the controller complete adaptation before the plunge
// lands, shedding no more (and typically less) demand than reactive
// Willow.
func TestOracleForesightHelps(t *testing.T) {
	modify := func(c *cluster.Config) {
		short(c)
		c.Supply = cluster.PaperConfig(0.6).Supply // replaced below
	}
	_ = modify
	withSupply := func(v Variant) (*cluster.Result, error) {
		return Run(v, 0.6, func(c *cluster.Config) {
			short(c)
			c.Supply = plungeTrace()
		})
	}
	reactive, err := withSupply(Willow)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := withSupply(Oracle)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.DroppedWattTicks > reactive.DroppedWattTicks*1.2 {
		t.Errorf("foresight shed more: oracle %v vs reactive %v",
			oracle.DroppedWattTicks, reactive.DroppedWattTicks)
	}
}

// plungeTrace is a supply with abrupt deep plunges.
func plungeTrace() interface{ At(int) float64 } {
	return tracePlunge{}
}

type tracePlunge struct{}

func (tracePlunge) At(t int) float64 {
	switch {
	case t%10 == 5 || t%10 == 6:
		return 5200
	default:
		return 8100
	}
}
