#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Algorithm 6: a lock-free, perfect-HI *releasable* LL/SC (R-LLSC) object
//! from a single atomic CAS word.
//!
//! A context-aware LL/SC object has state `(val, context)` where `context`
//! is the set of processes whose load-link is still valid. The paper extends
//! the classic interface with a **release** (`RL`) operation that removes
//! the caller from the context — without it, leftover context bits would
//! reveal that operations were attempted in the past, breaching history
//! independence (§6, "Achieving history independence").
//!
//! The implementation stores `(val, c_1 … c_n)` bit-packed in one CAS word,
//! so the mapping from abstract R-LLSC state to memory is a fixed bijection:
//! *perfect* HI (Theorem 28). `LL`, `SC` and `RL` are CAS retry loops and
//! hence lock-free, not wait-free; Algorithm 5 recovers wait-freedom at the
//! layer above (Lemmas 29–31).
//!
//! Two views are provided:
//!
//! * [`RLlscSpec`] — the abstract object `(Q, q0, O, R, Δ)`, for the
//!   linearizability checker.
//! * [`SimRLlsc`] / [`LlscOp`] — the step machines, Algorithm 6's one
//!   text. [`LlscOp`] is a *sub*-machine that `hi-universal` embeds inside
//!   Algorithm 5's apply loop, in the simulator and on threads alike;
//!   `hi_api::LlscObject` runs [`SimRLlsc`] on an `hi_sim::AtomicMem` word.

pub mod pack;
pub mod sim;
pub mod spec;

pub use pack::LlscLayout;
pub use sim::{LlscOp, LlscResult, SimRLlsc, SimRLlscProcess};
pub use spec::{RLlscOp, RLlscResp, RLlscSpec};
