//! `restore-audit`: soundness guards for the fault-injection substrate.
//!
//! Every campaign result in this workspace rests on one assumption: the
//! [`StateVisitor`](restore_arch::state::StateVisitor) walks really do
//! cover every bit of architecturally interesting state, with stable
//! global numbering and lossless flips. Which fields a walk covers is
//! structural: every production walk opens with an exhaustive
//! destructuring of its struct (no `..` rest pattern), binding walked
//! fields by name and excluded ones to `_` beside their reason, so a new
//! field does not compile until it is classified and a named field that
//! is never walked fails `clippy -D warnings` as an unused variable.
//! This crate checks the rest at runtime:
//!
//! * [`contract`] — a runtime checker that wraps real machine walks in a
//!   [`ContractVisitor`] and verifies the
//!   protocol invariants: region-before-word, declared widths within
//!   each visit method's cap, stable bit numbering across consecutive
//!   walks, non-mutating hash paths, and flip ∘ flip = identity on
//!   sampled bits.
//! * [`census`] — the per-region bit census (latch/RAM × control/data)
//!   of both machine models, for comparison against the paper's §4
//!   numbers; its tests pin every region's bit counts, so a walk that
//!   drops a field or visits an excluded one fails them.
//!
//! The `restore-audit` binary wires both into CI. Two further guards
//! cover the caches rather than the walks: [`battery`] checks at
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

pub use battery::{default_batteries, run_battery, BatteryReport, FieldPerturbation};
pub use census::{cpu_census, pipeline_census, Census};
pub use contract::{check_contract, ContractReport, ContractVisitor};
pub use determinism::{
    analyze_determinism_dirs, analyze_determinism_sources, DeterminismAnalysis, Finding, Severity,
};
