//! [`ConcurrentObject`](crate::ConcurrentObject) adapters for every
//! threaded backend in the workspace.
//!
//! | Adapter | Backend | Paper | Roles | HI level |
//! |---|---|---|---|---|
//! | [`VidyasankarObject`] | `AtomicVidyasankar` | Algorithm 1 | SWSR | none |
//! | [`LockFreeHiObject`] | `AtomicLockFreeHi` | Algorithms 2+3 | SWSR | state-quiescent |
//! | [`WaitFreeHiObject`] | `AtomicWaitFreeHi` | Algorithm 4 | SWSR | quiescent |
//! | [`QueueObject`] | `AtomicPositionalQueue` | §5.4 companion | SWSR | state-quiescent |
//! | [`LlscObject`] | `PackedRLlsc` | Algorithm 6 | `n` symmetric | perfect |
//! | [`UniversalObject`] | `AtomicUniversal` | Algorithm 5 | `n` symmetric | state-quiescent |
//! | [`MaxRegisterObject`] | `AtomicMaxRegister` | §5.1 | SWSR | state-quiescent |
//! | [`HiSetObject`] | `AtomicHiSet` | §5.1 | `n` symmetric | perfect |
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
pub use queue::{QueueHandle, QueueObject};
pub use registers::{
    HiSetHandle, HiSetObject, LockFreeHiHandle, LockFreeHiObject, MaxRegisterHandle,
    MaxRegisterObject, VidyasankarHandle, VidyasankarObject, WaitFreeHiHandle, WaitFreeHiObject,
};
pub use sharded::{ShardedTableHandle, ShardedTableObject, SAMPLED_AUDIT_DOMAIN};
pub use universal::{UniversalObject, UniversalObjectHandle};
