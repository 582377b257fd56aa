// Package willow is a Go reproduction of "Willow: A Control System for
// Energy and Thermal Adaptive Computing" (Kant, Murugan & Du, IEEE IPDPS
// 2011).
//
// The implementation lives under internal/: the hierarchical controller
// (internal/core), its substrates (thermal model, topology, power and
// workload models, fault plans, bin packing, network simulation),
// the emulated three-server testbed, and the experiment harness that
// regenerates every table and figure of the paper's evaluation. See
// README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-vs-measured record.
//
// # Parallel execution and replications
//
// Each experiment is a closed deterministic simulation, so the harness
// (internal/exp) fans experiments — and, with Options.Replications,
// N independently seeded replications of each — across a bounded worker
// pool (internal/parallel). Replication seeds are derived by index from
// one SplitMix64 stream and results land in preallocated slots, so the
// rendered tables are byte-identical for any worker count; replicated
// runs aggregate to mean ± 95 % CI tables. See the "Parallel execution
// & replications" section of EXPERIMENTS.md for the full argument.
package willow

// Version identifies this reproduction's release.
const Version = "1.0.0"
