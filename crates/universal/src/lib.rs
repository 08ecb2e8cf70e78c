#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Algorithm 5: the wait-free, state-quiescent history-independent
//! *universal* construction from releasable LL/SC (paper §6).
//!
//! Any object `A` with an enumerable state space can be implemented
//! wait-free and state-quiescent HI from CAS base objects large enough to
//! hold `A`'s full state. The construction:
//!
//! * `head` — an R-LLSC cell holding `⟨q, ⊥⟩` between operations, or
//!   `⟨q', ⟨rsp, j⟩⟩` while the response of the operation that moved the
//!   object to `q'` (invoked by process `j`) has not yet been delivered.
//! * `announce[1..n]` — one R-LLSC cell per process, holding `⊥`, the
//!   process's announced operation, or its response.
//!
//! Applying an operation is a three-stage protocol (Figure 3): (1) CAS
//! `head` from `⟨q, ⊥⟩` to `⟨q', ⟨rsp, j⟩⟩`; (2) overwrite `announce[j]`
//! with `rsp`; (3) clear `head` back to `⟨q', ⊥⟩`. Any process can perform
//! any stage (helping, driven by a rotating local priority), which gives
//! wait-freedom; the *clearing* — of responses, announcements, and R-LLSC
//! contexts (`RL`) — is what the paper adds to make helping history
//! independent.
//!
//! This crate provides:
//!
//! * [`Codec`] — fixes the bit-level canonical representation of every
//!   state/op/response *at construction time* (Proposition 3's requirement).
//! * [`SimUniversal`] — Algorithm 5 as simulator step machines over
//!   [`hi_llsc::LlscOp`] sub-machines, with the `||` interleavings of lines
//!   6, 18 and 25 modeled as strict left/right alternation.
//! * [`AtomicUniversal`] — the threaded backend: lines 4–28 as one hand
//!   loop, with the same primitive order and helping priority as
//!   [`SimUniversal`], whose every R-LLSC call is an [`hi_llsc::LlscOp`]
//!   sub-machine, on an [`hi_sim::AtomicMem`] laid out by
//!   [`SimUniversal`]'s `init_memory()`. Running [`UniversalProcess`]
//!   itself on threads costs 2–3× the hand loop (see ROADMAP item 1).
//! * [`CasUniversal`] — the §6 intro baseline: a single CAS cell holding the
//!   state; perfect HI but only lock-free.
//! * [`LeakyUniversal`] — a deliberately *non*-HI contrast: [`CasUniversal`]
//!   plus a never-cleared per-process operation ledger, modeling the
//!   operation records that prior universal constructions [19, 26–28] keep.
//! * [`ModeTracker`] — checks Invariant 22's `A_i → B_{i+1} → A_{i+1}` head
//!   alternation on live executions.

pub mod cas_universal;
pub mod codec;
pub mod leaky;
pub mod mode;
pub mod sim;
pub mod threaded;

pub use cas_universal::CasUniversal;
pub use codec::{AnnValue, Codec};
pub use leaky::LeakyUniversal;
pub use mode::{Mode, ModeTracker};
pub use sim::{SimUniversal, UniversalProcess};
pub use threaded::{AtomicUniversal, UniversalHandle};
