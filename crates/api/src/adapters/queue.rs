//! [`ConcurrentObject`](crate::ConcurrentObject) adapter for the positional
//! HI queue (§5.4's companion possibility result): its simulator step
//! machine on an atomic arena ([`crate::threaded`]).

use hi_core::objects::BoundedQueueSpec;
use hi_queue::PositionalQueue;

use crate::threaded::{machine_adapter, Machines};

machine_adapter! {
    /// The positional HI queue through the unified facade: single mutator
    /// (`Enqueue`/`Dequeue`, wait-free), single observer (`Peek`,
    /// lock-free), state-quiescent HI.
    QueueObject(BoundedQueueSpec, PositionalQueue)
}

impl QueueObject {
    /// Creates the queue implementing `spec`, initially empty.
    pub fn new(spec: BoundedQueueSpec) -> Self {
        QueueObject(Machines::new(PositionalQueue::new(spec.t(), spec.cap())))
    }
}
