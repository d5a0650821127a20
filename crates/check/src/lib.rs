//! Independent proof checkers for the model checker's answers.
//!
//! This crate closes the trust loop around the engines: instead of believing
//! a `Safe`/`Unsafe` verdict, the harness (and the `plic3-check` binary) can
//! demand evidence and have it checked by code that shares nothing with the
//! solver or the IC3 engine that produced it.
//!
//! * [`check_unsat_proof`] — a backward DRAT (RUP) checker for the clause
//!   proofs the SAT core emits when its `proof-log` tracer is enabled
//!   ([`plic3_sat::Solver::enable_proof_tracing`]). It verifies that every
//!   derived clause the final conflict depends on is a reverse-unit-propagation
//!   consequence of the clauses before it.
//! * [`check_certificate_on_original`] — an inductive-invariant checker that
//!   takes the certificate an engine produced on the *simplified* circuit and
//!   discharges initiation, consecution, and the property on the **original,
//!   pre-preprocessing** circuit by composing through the preprocessing
//!   [`plic3_prep::Reconstruction`]. [`check_certificate`] is the
//!   no-preprocessing convenience wrapper, and [`check_invariant`] checks a
//!   certificate on the transition system it was produced on. This is the
//!   workspace's only inductive-invariant checker.
//!
//! See `docs/CERTIFICATES.md` for the proof formats and the soundness
//! argument per tracer hook site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drat;
mod invariant;
#[cfg(test)]
mod verify;

pub use drat::{check_unsat_proof, DratStats};
pub use invariant::{
    check_certificate, check_certificate_on_original, check_invariant, CertCheckError,
    CertCheckReport, CheckOptions,
};
