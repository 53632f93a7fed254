//! `restore-audit`: soundness guards for the fault-injection substrate.
//!
//! Every campaign result in this workspace rests on one assumption: the
//! [`StateVisitor`](restore_arch::state::StateVisitor) walks really do
//! cover every bit of architecturally interesting state, with stable
//! global numbering and lossless flips. This crate checks that
//! assumption from two directions:
//!
//! * [`scanner`] — a static, dependency-free token-level analyzer over
//!   the simulator sources. For every type with a `FaultState` impl or a
//!   `visit`/`visit_state` method it cross-checks declared struct fields
//!   against the fields the walk actually hands to the visitor, enforces
//!   explicit `// audit: skip -- <reason>` exemptions for everything
//!   else, and width/type soundness on direct visits.
//! * [`contract`] — a runtime checker that wraps real machine walks in a
//!   [`ContractVisitor`] and verifies the
//!   protocol invariants: region-before-word, stable bit numbering
//!   across consecutive walks, non-mutating hash paths, and
//!   flip ∘ flip = identity on sampled bits.
//! * [`census`] — the per-region bit census (latch/RAM × control/data)
//!   of both machine models, for comparison against the paper's §4
//!   numbers.
//!
//! The `restore-audit` binary wires all three into CI. Two further
//! guards cover the caches rather than the walks: [`battery`] checks at
//! runtime that exactly the result-shaping config fields rekey the
//! campaign digests (the digest functions' exhaustive destructuring
//! makes every field's class explicit at compile time), and
//! [`determinism`] lints the campaign crates for nondeterministic
//! constructs.

#![forbid(unsafe_code)]

pub mod battery;
pub mod census;
pub mod contract;
pub mod determinism;
pub(crate) mod lex;
pub mod scanner;

pub use battery::{default_batteries, run_battery, BatteryReport, FieldPerturbation};
pub use census::{cpu_census, pipeline_census, Census};
pub use contract::{check_contract, ContractReport, ContractVisitor};
pub use determinism::{analyze_determinism_dirs, analyze_determinism_sources, DeterminismAnalysis};
pub use scanner::{analyze_dirs, analyze_sources, Analysis, Finding, Severity};
