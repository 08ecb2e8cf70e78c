//! [`ConcurrentObject`](crate::ConcurrentObject) adapters for every
//! threaded backend in the workspace.
//!
//! The register, set and queue adapters have no threaded code of their own:
//! each runs its simulator step machine on an atomic arena
//! ([`crate::threaded`]), so their backend column names the sim type.
//!
//! | Adapter | Backend | Paper | Roles | HI level |
//! |---|---|---|---|---|
//! | [`VidyasankarObject`] | `VidyasankarRegister` | Algorithm 1 | SWSR | none |
//! | [`LockFreeHiObject`] | `LockFreeHiRegister` | Algorithms 2+3 | SWSR | state-quiescent |
//! | [`WaitFreeHiObject`] | `WaitFreeHiRegister` | Algorithm 4 | SWSR | quiescent |
//! | [`QueueObject`] | `PositionalQueue` | §5.4 companion | SWSR | state-quiescent |
//! | [`LlscObject`] | `PackedRLlsc` | Algorithm 6 | `n` symmetric | perfect |
//! | [`UniversalObject`] | `AtomicUniversal` | Algorithm 5 | `n` symmetric | state-quiescent |
//! | [`MaxRegisterObject`] | `MaxRegister` | §5.1 | SWSR | state-quiescent |
//! | [`HiSetObject`] | `HiSet` | §5.1 | `n` symmetric | perfect |
//! | [`HashTableObject`] | `ResizableHiShard` at a fixed capacity | follow-up (2503.21016) | `n` symmetric | state-quiescent |
//! | [`ShardedTableObject`] | `ShardedHiHashTable` | scale-out (online resize) | `n` symmetric | state-quiescent |

pub mod hashtable;
pub mod llsc;
pub mod queue;
pub mod registers;
pub mod sharded;
pub mod universal;

pub use hashtable::{HashTableHandle, HashTableObject};
pub use llsc::{LlscHandle, LlscObject};
pub use queue::QueueObject;
pub use registers::{
    HiSetObject, LockFreeHiObject, MaxRegisterObject, VidyasankarObject, WaitFreeHiObject,
};
pub use sharded::{ShardedTableHandle, ShardedTableObject, SAMPLED_AUDIT_DOMAIN};
pub use universal::{UniversalObject, UniversalObjectHandle};
