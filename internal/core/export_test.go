package core

// MarkAllDirty marks every PMU dirty so the next aggregation re-sums the
// whole tree — the full per-Δ_D recompute. Test-only: the external
// fleet oracle (aggregate_oracle_test.go) calls it before every tick of
// its reference machine.
func (c *Controller) MarkAllDirty() { c.markAllDirty() }
