//! The attack harness: defenses, attacker models, trials, and metrics.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use polar_classinfo::ClassInfo;
use polar_instrument::{instrument, InstrumentOptions};
use polar_ir::interp::{run, ExecLimits, ExecReport};
use polar_ir::trace::NopTracer;
use polar_layout::{LayoutPlan, RandomizationPolicy, StaticOlrTable};
use polar_runtime::{ObjectRuntime, PolarRuntime, RandomizeMode, RuntimeConfig, ShardedRuntime};

use crate::scenarios::{Scenario, ScenarioKind};

/// The attacker's value of choice (what a hijacked pointer reads back).
pub const ATTACK_VALUE: u64 = 0x4242_4242_4242_4242;

/// Which hardening the target binary carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Defense {
    /// Unhardened binary: deterministic natural layouts.
    Native,
    /// Compile-time OLR (`randstruct`/DSLR/RFOR): layouts permuted once
    /// per binary, baked into the code, identical across executions.
    StaticOlr {
        /// The binary's randomization seed.
        binary_seed: u64,
    },
    /// POLaR: the instrumented binary with per-allocation randomization.
    Polar {
        /// The process's runtime entropy (fresh per execution).
        process_seed: u64,
        /// Whether the runtime's class-mismatch/UAF detections are armed
        /// (on by default in the paper's prototype; off isolates the
        /// purely probabilistic layout defense).
        detect: bool,
    },
    /// POLaR plus placement randomization: the same per-allocation
    /// layout engine as [`Defense::Polar`], with the sim heap's
    /// [`PlacementPolicy`](polar_simheap::PlacementPolicy) armed —
    /// shuffle buffers, guard gaps, and arena offset entropy — so the
    /// *addresses* the groomer relies on are randomized too.
    PolarPlacement {
        /// The process's runtime entropy (fresh per execution).
        process_seed: u64,
    },
    /// Placement randomization *alone*: natural (native) layouts on a
    /// heap with the same [`PlacementPolicy`](polar_simheap::PlacementPolicy)
    /// as [`Defense::PolarPlacement`]. The isolating ablation for the
    /// layout-only / placement-only / both comparison (`tables --
    /// placement`); deliberately not part of the gated scorecard.
    PlacementOnly {
        /// Seed for the heap's placement stream.
        process_seed: u64,
    },
    /// POLaR with the stateless small-class path: classes at or under
    /// the stateless field bound get keyed-permutation layouts derived
    /// from heap identity (SPAM-style). With `traps` on — the runtime's
    /// default — the derived plans interleave virtual booby-trap slots
    /// whose geometry rederives from the same identity; with `traps`
    /// off this is the original permute-only space/detection trade-off,
    /// kept as a measured ablation. Metadata checks stay armed.
    PolarStateless {
        /// The process's runtime entropy (fresh per execution).
        process_seed: u64,
        /// Whether derived plans carry virtual booby traps.
        traps: bool,
    },
    /// POLaR on the concurrent sharded runtime, driven through one
    /// thread handle (allocations from its home shard's magazines,
    /// accesses routed by address).
    Sharded {
        /// The process's runtime entropy (fresh per execution).
        process_seed: u64,
        /// Shard count.
        shards: usize,
    },
    /// Redzone-based memory safety (ASan-style, Section VII-C of the
    /// paper): natural layouts, but every raw access is checked against
    /// its heap block.
    Redzone,
}

impl Defense {
    /// POLaR with detections armed.
    pub fn polar(process_seed: u64) -> Self {
        Defense::Polar { process_seed, detect: true }
    }

    /// POLaR with placement randomization on top (layout + addresses).
    pub fn polar_placement(process_seed: u64) -> Self {
        Defense::PolarPlacement { process_seed }
    }

    /// Placement randomization alone (native layouts; the ablation row).
    pub fn placement_only(process_seed: u64) -> Self {
        Defense::PlacementOnly { process_seed }
    }

    /// POLaR with the stateless small-class path on, virtual traps
    /// included (the runtime's default posture for small classes).
    pub fn polar_stateless(process_seed: u64) -> Self {
        Defense::PolarStateless { process_seed, traps: true }
    }

    /// The permute-only stateless ablation: no virtual traps.
    pub fn polar_stateless_notraps(process_seed: u64) -> Self {
        Defense::PolarStateless { process_seed, traps: false }
    }

    /// POLaR on the sharded runtime (four shards).
    pub fn sharded(process_seed: u64) -> Self {
        Defense::Sharded { process_seed, shards: 4 }
    }

    /// Display label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Defense::Native => "native",
            Defense::StaticOlr { .. } => "static-olr",
            Defense::Polar { detect: true, .. } => "polar",
            Defense::Polar { detect: false, .. } => "polar(no-detect)",
            Defense::PolarPlacement { .. } => "polar+placement",
            Defense::PlacementOnly { .. } => "placement-only",
            Defense::PolarStateless { traps: true, .. } => "polar-stateless",
            Defense::PolarStateless { traps: false, .. } => "stateless-notraps",
            Defense::Sharded { .. } => "sharded",
            Defense::Redzone => "redzone",
        }
    }

    pub(crate) fn mode(&self) -> RandomizeMode {
        match self {
            Defense::Native | Defense::Redzone | Defense::PlacementOnly { .. } => {
                RandomizeMode::Native
            }
            Defense::StaticOlr { binary_seed } => RandomizeMode::static_olr(*binary_seed),
            Defense::Polar { .. }
            | Defense::PolarPlacement { .. }
            | Defense::PolarStateless { .. }
            | Defense::Sharded { .. } => RandomizeMode::per_allocation(),
        }
    }

    /// Run `trial` on a fresh runtime for this defense. The sharded
    /// defense builds the lock-striped runtime and lends it through one
    /// handle, so the program allocates exactly as one thread of a
    /// threaded program would (magazines included); every other defense
    /// gets a single-context runtime.
    pub(crate) fn with_runtime<T>(&self, trial: impl FnOnce(&mut dyn PolarRuntime) -> T) -> T {
        match self {
            Defense::Sharded { shards, .. } => {
                let rt = ShardedRuntime::new(self.mode(), self.config(), *shards);
                let mut handle = rt.handle(0);
                trial(&mut handle)
            }
            _ => trial(&mut ObjectRuntime::new(self.mode(), self.config())),
        }
    }

    pub(crate) fn config(&self) -> RuntimeConfig {
        let mut config = RuntimeConfig::default();
        match self {
            Defense::Polar { process_seed, detect } => {
                config.seed = *process_seed;
                config.detect_class_mismatch = *detect;
                config.detect_use_after_free = *detect;
                config.check_traps_on_free = *detect;
                config.detect_probe_traps = *detect;
                // The "polar" scorecard row measures the *stateful*
                // engine path (stored plans, engine-drawn dummies);
                // keep it pinned there even though the runtime default
                // flipped small classes to stateless.
                config.stateless = polar_layout::StatelessPolicy::off();
            }
            Defense::PolarPlacement { process_seed } => {
                config.seed = *process_seed;
                config.detect_class_mismatch = true;
                config.detect_use_after_free = true;
                config.check_traps_on_free = true;
                config.detect_probe_traps = true;
                config.stateless = polar_layout::StatelessPolicy::off();
                // The placement column: layout engine identical to
                // `polar`, plus address randomization. Seed 0 means the
                // runtime derives the placement stream from its own seed,
                // so one `process_seed` still replays the whole trial.
                config.heap.placement = polar_simheap::PlacementPolicy {
                    shuffle_depth: 16,
                    offset_entropy_bits: 8,
                    guard_gap_bits: 6,
                    seed: 0,
                };
            }
            Defense::PlacementOnly { process_seed } => {
                // Native layouts, no detections: everything stays at the
                // unhardened default except the placement policy, so the
                // row isolates address entropy from layout entropy.
                config.seed = *process_seed;
                config.heap.placement = polar_simheap::PlacementPolicy {
                    shuffle_depth: 16,
                    offset_entropy_bits: 8,
                    guard_gap_bits: 6,
                    seed: 0,
                };
            }
            Defense::PolarStateless { process_seed, traps } => {
                config.seed = *process_seed;
                config.stateless = if *traps {
                    polar_layout::StatelessPolicy::on()
                } else {
                    polar_layout::StatelessPolicy::permute_only()
                };
            }
            Defense::Sharded { process_seed, .. } => {
                config.seed = *process_seed;
                // Stateful plans on every shard, as for `polar`.
                config.stateless = polar_layout::StatelessPolicy::off();
                // The scenarios touch a few hundred bytes; a small total
                // arena keeps per-trial runtime construction cheap.
                config.heap.capacity = 4 << 20;
            }
            Defense::Redzone => {
                config.redzone_checks = true;
                // ASan pads every allocation with poisoned no-man's-land,
                // quarantines freed blocks, and poisons their contents.
                config.heap.redzone = 16;
                config.heap.quarantine = 64;
                config.heap.poison = Some(0xDD);
            }
            _ => {}
        }
        config
    }
}

/// How much the attacker knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attacker {
    /// Only the source-visible (natural) layout — the hidden-binary
    /// situation static OLR assumes.
    NaturalLayout,
    /// Has the binary and can reconstruct any compile-time layout — the
    /// public-binary threat model POLaR is designed for (Section III-B1).
    BinaryAware,
}

/// Outcome of one attack execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackOutcome {
    /// The hijack value reached the indirect-call site.
    Hijacked,
    /// A POLaR detection terminated the program first.
    Detected,
    /// The program crashed without a useful hijack.
    Crashed,
    /// The attack fizzled: the program ran but the pointer was unharmed
    /// or corrupted with the wrong value.
    NoEffect,
}

impl AttackOutcome {
    /// Classify an execution report: hijack beats detection beats crash.
    pub fn classify(report: &ExecReport) -> Self {
        use polar_ir::interp::ExecError;
        use polar_simheap::HeapError;
        if report.output.first() == Some(&ATTACK_VALUE) {
            AttackOutcome::Hijacked
        } else if report.detected()
            || matches!(report.result, Err(ExecError::Fault(HeapError::OutOfBlock { .. })))
        {
            // Redzone violations are that defense's detection signal.
            AttackOutcome::Detected
        } else if report.crashed() {
            AttackOutcome::Crashed
        } else {
            AttackOutcome::NoEffect
        }
    }
}

/// Reconstruct the layout a compile-time-randomized binary uses for a
/// class (what reverse engineering the binary reveals).
fn reconstruct_static_plan(info: &Arc<ClassInfo>, binary_seed: u64) -> LayoutPlan {
    let mut table = StaticOlrTable::new(RandomizationPolicy::permute_only(), binary_seed);
    Arc::try_unwrap(table.plan_for(info)).unwrap_or_else(|arc| (*arc).clone())
}

/// The attacker's belief about the victim/spray layouts under `defense`.
fn believed_plans(
    scenario: &Scenario,
    defense: &Defense,
    attacker: Attacker,
) -> (LayoutPlan, Option<LayoutPlan>) {
    let registry = &scenario.module.registry;
    let victim = registry.get(scenario.victim_class);
    let spray = scenario.spray_class.map(|c| registry.get(c));
    match (defense, attacker) {
        (Defense::StaticOlr { binary_seed }, Attacker::BinaryAware) => (
            reconstruct_static_plan(victim, *binary_seed),
            spray.map(|s| reconstruct_static_plan(s, *binary_seed)),
        ),
        // Everything else: the attacker can only assume natural layout
        // (against POLaR even the binary reveals nothing).
        _ => (
            LayoutPlan::natural_for(victim),
            spray.map(|s| LayoutPlan::natural_for(s)),
        ),
    }
}

/// Craft the exploit input the given attacker would send.
pub fn craft_input(scenario: &Scenario, defense: &Defense, attacker: Attacker) -> Vec<u8> {
    let (victim_plan, spray_plan) = believed_plans(scenario, defense, attacker);
    let target_off = victim_plan.offset(usize::from(scenario.victim_field)) as u64;
    let param: u64 = match scenario.kind {
        // Copy length reaching through the buffer into the believed
        // pointer location of the adjacent object.
        ScenarioKind::Overflow => scenario.buffer_block + target_off + 8,
        ScenarioKind::IntraObjectOverflow => {
            // Copy length: from the believed start of `name` (field 0)
            // through the end of the believed pointer location.
            let name_off = victim_plan.offset(0) as u64;
            target_off.saturating_sub(name_off) + 8
        }
        ScenarioKind::TypeConfusion | ScenarioKind::UseAfterFree => {
            // Pick the spray-class field whose believed offset overlaps
            // the victim field.
            let spray = spray_plan.expect("spray plan for confusion/uaf");
            (0..spray.field_count())
                .find(|&k| spray.offset(k) as u64 == target_off)
                .unwrap_or(0) as u64
        }
    };
    let mut input = ATTACK_VALUE.to_le_bytes().to_vec();
    input.push((param & 0xFF) as u8);
    input.push((param >> 8) as u8);
    match scenario.kind {
        ScenarioKind::Overflow => {
            // Filler through the buffer, fake pointer at the believed
            // victim-field position.
            let rel = (scenario.buffer_block + target_off) as usize;
            let mut payload = vec![0x20u8; rel + 8];
            payload[rel..rel + 8].copy_from_slice(&ATTACK_VALUE.to_le_bytes());
            input.extend(payload);
        }
        ScenarioKind::IntraObjectOverflow => {
            // The copied "name": filler with the fake pointer positioned
            // at the believed (pointer − name) distance.
            let name_off = victim_plan.offset(0) as u64;
            let rel = target_off.saturating_sub(name_off) as usize;
            let mut payload = vec![0x20u8; rel + 8];
            payload[rel..rel + 8].copy_from_slice(&ATTACK_VALUE.to_le_bytes());
            input.extend(payload);
        }
        _ => {}
    }
    input
}

/// Run one overflow-style attack with an explicit probed placement:
/// copy length `param`, hijack value positioned `guess` bytes past the
/// victim block's start. Returns whether the hijack value came back out
/// (the probing attacker's oracle).
pub fn run_attack_with_param(
    scenario: &Scenario,
    defense: &Defense,
    param: u64,
    guess: u64,
) -> bool {
    let mut input = ATTACK_VALUE.to_le_bytes().to_vec();
    input.push((param & 0xFF) as u8);
    input.push((param >> 8) as u8);
    let rel = (scenario.buffer_block + guess) as usize;
    let mut payload = vec![0x20u8; rel + 8];
    payload[rel..rel + 8].copy_from_slice(&ATTACK_VALUE.to_le_bytes());
    input.extend(payload);
    let module = prepare_module(scenario, defense);
    let report = execute(&module, defense, &input);
    report.output.first() == Some(&ATTACK_VALUE)
}

pub(crate) fn prepare_module(scenario: &Scenario, defense: &Defense) -> polar_ir::Module {
    match defense {
        Defense::Polar { .. }
        | Defense::PolarPlacement { .. }
        | Defense::PolarStateless { .. }
        | Defense::Sharded { .. } => {
            let (hardened, _) = instrument(&scenario.module, &InstrumentOptions::default());
            hardened
        }
        // Native, compile-time OLR and redzone binaries are not
        // instrumented; static permutation lives in the interpreter's
        // compile-time layout resolution.
        _ => scenario.module.clone(),
    }
}

/// One execution under `defense`'s runtime (see
/// [`Defense::with_runtime`]).
pub(crate) fn execute(module: &polar_ir::Module, defense: &Defense, input: &[u8]) -> ExecReport {
    defense.with_runtime(|rt| run(module, rt, input, ExecLimits::default(), &mut NopTracer))
}

/// Run one attack execution and classify the outcome.
pub fn run_attack(scenario: &Scenario, defense: &Defense, attacker: Attacker) -> AttackOutcome {
    let input = craft_input(scenario, defense, attacker);
    let module = prepare_module(scenario, defense);
    AttackOutcome::classify(&execute(&module, defense, &input))
}

/// Aggregated trial results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrialStats {
    /// Total executions.
    pub trials: u64,
    /// Successful hijacks.
    pub hijacked: u64,
    /// POLaR detections.
    pub detected: u64,
    /// Crashes.
    pub crashed: u64,
    /// No observable effect.
    pub no_effect: u64,
    outcome_counts: HashMap<AttackOutcome, u64>,
}

impl TrialStats {
    fn record(&mut self, outcome: AttackOutcome) {
        self.trials += 1;
        match outcome {
            AttackOutcome::Hijacked => self.hijacked += 1,
            AttackOutcome::Detected => self.detected += 1,
            AttackOutcome::Crashed => self.crashed += 1,
            AttackOutcome::NoEffect => self.no_effect += 1,
        }
        *self.outcome_counts.entry(outcome).or_insert(0) += 1;
    }

    /// Fraction of trials that hijacked control flow.
    pub fn hijack_rate(&self) -> f64 {
        self.hijacked as f64 / self.trials.max(1) as f64
    }

    /// Fraction of trials POLaR detected.
    pub fn detection_rate(&self) -> f64 {
        self.detected as f64 / self.trials.max(1) as f64
    }

    /// Replay determinism: the fraction of trials sharing the modal
    /// outcome (1.0 = the attack behaves identically on every attempt —
    /// the paper's *reproduction problem*).
    pub fn determinism(&self) -> f64 {
        let modal = self.outcome_counts.values().copied().max().unwrap_or(0);
        modal as f64 / self.trials.max(1) as f64
    }
}

impl fmt::Display for TrialStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} trials: {:.1}% hijacked, {:.1}% detected, {:.1}% crashed, {:.1}% no effect \
             (determinism {:.2})",
            self.trials,
            self.hijack_rate() * 100.0,
            self.detection_rate() * 100.0,
            self.crashed as f64 / self.trials.max(1) as f64 * 100.0,
            self.no_effect as f64 / self.trials.max(1) as f64 * 100.0,
            self.determinism(),
        )
    }
}

/// Run `n` attack executions. Per trial, native binaries never change;
/// static-OLR binaries keep their (single) binary seed — replaying the
/// same binary; POLaR processes draw fresh runtime entropy per execution,
/// exactly the per-execution model of Section III-B2.
pub fn trials(
    scenario: &Scenario,
    defense_for_trial: impl Fn(u64) -> Defense,
    attacker: Attacker,
    n: u64,
) -> TrialStats {
    let mut stats = TrialStats::default();
    for t in 0..n {
        let defense = defense_for_trial(t);
        stats.record(run_attack(scenario, &defense, attacker));
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    #[test]
    fn native_binaries_fall_deterministically() {
        for s in scenarios::all() {
            let stats = trials(&s, |_| Defense::Native, Attacker::NaturalLayout, 10);
            assert_eq!(stats.hijacked, 10, "{}: {stats}", s.kind.label());
            assert_eq!(stats.determinism(), 1.0);
        }
    }

    #[test]
    fn static_olr_resists_blind_attackers_but_not_binary_aware_ones() {
        for s in scenarios::all() {
            let blind = trials(
                &s,
                |_| Defense::StaticOlr { binary_seed: 77 },
                Attacker::NaturalLayout,
                12,
            );
            let aware = trials(
                &s,
                |_| Defense::StaticOlr { binary_seed: 77 },
                Attacker::BinaryAware,
                12,
            );
            // The hidden-binary assumption: blind attacks are down to
            // layout luck; with the binary, success is total again —
            // except for the forward-only intra-object write, whose
            // exploitability genuinely depends on whether this binary's
            // permutation put the buffer before the pointer (still
            // all-or-nothing and fully predictable from the binary).
            if s.kind == crate::scenarios::ScenarioKind::IntraObjectOverflow {
                assert!(
                    aware.hijacked == 12 || aware.hijacked == 0,
                    "{}: {aware}",
                    s.kind.label()
                );
            } else {
                assert_eq!(aware.hijacked, 12, "{}: {aware}", s.kind.label());
            }
            assert!(
                blind.hijacked == 0 || blind.hijacked == 12,
                "static OLR must be deterministic per binary: {blind}"
            );
            assert_eq!(blind.determinism(), 1.0);
        }
    }

    #[test]
    fn static_olr_is_deterministic_across_reexecution() {
        let s = scenarios::overflow();
        // The same binary replayed 8 times: one outcome.
        let stats =
            trials(&s, |_| Defense::StaticOlr { binary_seed: 3 }, Attacker::BinaryAware, 8);
        assert_eq!(stats.determinism(), 1.0);
    }

    #[test]
    fn polar_defeats_binary_aware_attackers() {
        for s in scenarios::all() {
            let stats = trials(&s, |t| Defense::polar(1000 + t), Attacker::BinaryAware, 20);
            assert!(
                stats.hijack_rate() < 0.5,
                "{}: POLaR should break determinism: {stats}",
                s.kind.label()
            );
            // Confusion/UAF are *detected* by the metadata checks.
            if s.kind != crate::scenarios::ScenarioKind::Overflow {
                assert!(
                    stats.detection_rate() > 0.5,
                    "{}: expected detections: {stats}",
                    s.kind.label()
                );
            }
        }
    }

    #[test]
    fn polar_outcomes_vary_across_executions() {
        let s = scenarios::overflow();
        let stats = trials(&s, |t| Defense::polar(500 + t), Attacker::BinaryAware, 30);
        assert!(
            stats.determinism() < 1.0,
            "per-allocation randomization must vary across runs: {stats}"
        );
    }
}
