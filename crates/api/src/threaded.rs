//! The threaded world of the register, set and queue scenarios: a simulator
//! implementation's own step machines, run on real threads.
//!
//! [`Machines`] holds an [`AtomicMem`] built from the implementation's
//! `init_memory()` plus one persistent process machine per pid, made by
//! `make_process`, and reads the arena through the implementation's
//! [`Layout`]. A [`MachineHandle`] applies an operation as `invoke`,
//! then `step` until the machine responds, each step one atomic primitive.
//! So the code the model checker, the fault sweep and the lower-bound
//! adversaries certify is the code the adapters ship, on the same memory
//! layout, and the machines' local state (Algorithm 4's `last-val`, the max
//! register's running maximum, the queue's mirror) carries over from one
//! [`handles`](ConcurrentObject::handles) call to the next.

use std::marker::PhantomData;

use hi_core::{HiLevel, ObjectSpec, Pid, Progress, Roles};
use hi_sim::{AtomicMem, Implementation, ProcessHandle};
use hi_spec::{Layout, SimObject};

use crate::object::{ConcurrentObject, ObjectHandle, OnlineProbe, ProbeVerdict};

/// A simulator implementation run on real threads: the atomic arena plus
/// one persistent step machine per pid.
#[derive(Debug)]
pub struct Machines<S: ObjectSpec, M: Implementation<S>> {
    sim: M,
    mem: AtomicMem,
    procs: Vec<Padded<M::Process>>,
    spec: PhantomData<S>,
}

/// One process machine on cache lines of its own. Every step writes the
/// machine's program counter, so two machines sharing a line would make
/// threads stepping different roles contend on it (128 bytes covers the
/// adjacent-line prefetcher's pair).
#[derive(Debug)]
#[repr(align(128))]
struct Padded<P>(P);

impl<S: ObjectSpec, M: SimObject<S> + Implementation<S>> Machines<S, M> {
    /// Lays out `sim`'s initial memory on atomics and makes its processes.
    pub fn new(sim: M) -> Self {
        let n = sim.num_processes();
        assert_eq!(
            n,
            SimObject::roles(&sim).num_handles(),
            "one process per role"
        );
        Machines {
            mem: AtomicMem::new(sim.init_memory()),
            procs: (0..n)
                .map(|pid| Padded(sim.make_process(Pid(pid))))
                .collect(),
            sim,
            spec: PhantomData,
        }
    }
}

/// One role's handle on [`Machines`]: its persistent process machine,
/// stepped on the shared arena.
#[derive(Debug)]
pub struct MachineHandle<'a, S, P> {
    mem: &'a AtomicMem,
    process: &'a mut P,
    spec: &'a S,
    roles: Roles,
    role: usize,
}

impl<S: ObjectSpec, P: ProcessHandle<S>> ObjectHandle<S> for MachineHandle<'_, S, P> {
    fn apply(&mut self, op: S::Op) -> S::Resp {
        self.process.invoke(op);
        let mut mem = self.mem;
        loop {
            if let Some(resp) = self.process.step(&mut mem) {
                return resp;
            }
        }
    }

    fn supports(&self, op: &S::Op) -> bool {
        self.roles.allows(self.spec, self.role, op)
    }
}

impl<S, M> ConcurrentObject<S> for Machines<S, M>
where
    S: ObjectSpec + Sync,
    M: SimObject<S> + Implementation<S> + Layout<S> + Sync,
    M::Process: Send,
{
    type Handle<'a>
        = MachineHandle<'a, S, M::Process>
    where
        Self: 'a;

    fn spec(&self) -> &S {
        Implementation::spec(&self.sim)
    }

    fn roles(&self) -> Roles {
        SimObject::roles(&self.sim)
    }

    fn hi_level(&self) -> HiLevel {
        SimObject::hi_level(&self.sim)
    }

    fn progress(&self) -> Progress {
        SimObject::progress(&self.sim)
    }

    fn handles(&mut self) -> Vec<Self::Handle<'_>> {
        self.handles_with_probe().0
    }

    fn handles_with_probe(&mut self) -> (Vec<Self::Handle<'_>>, Option<OnlineProbe<'_>>) {
        let (sim, mem) = (&self.sim, &self.mem);
        let (spec, roles) = (Implementation::spec(sim), SimObject::roles(sim));
        let handles = self
            .procs
            .iter_mut()
            .enumerate()
            .map(|(role, Padded(process))| MachineHandle {
                mem,
                process,
                spec,
                roles,
                role,
            })
            .collect();
        // Perfect HI: every configuration's memory is the canonical image of
        // *some* state, so a sample taken mid-flight must decode and
        // re-encode to itself.
        let probe = (SimObject::hi_level(sim) == HiLevel::Perfect).then(|| {
            OnlineProbe::new(move || {
                let mem = mem.snapshot();
                let state = sim.state_of(&mem);
                ProbeVerdict {
                    canonical: sim.canonical_image(&state).as_ref() == Some(&mem),
                    state: format!("{state:?}"),
                    mem,
                }
            })
        });
        (handles, probe)
    }

    fn mem_snapshot(&self) -> Vec<u64> {
        self.mem.snapshot()
    }

    fn canonical(&self, state: &S::State) -> Option<Vec<u64>> {
        self.sim.canonical_image(state)
    }

    fn abstract_state(&self) -> S::State {
        self.sim.state_of(&self.mem.snapshot())
    }
}

/// Declares a named adapter around [`Machines`] of one simulator
/// implementation, delegating every [`ConcurrentObject`] method to it.
macro_rules! machine_adapter {
    ($(#[$doc:meta])* $obj:ident($spec:ty, $sim:ty)) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $obj(pub(crate) $crate::threaded::Machines<$spec, $sim>);

        impl $crate::object::ConcurrentObject<$spec> for $obj {
            type Handle<'a> = $crate::threaded::MachineHandle<
                'a,
                $spec,
                <$sim as hi_sim::Implementation<$spec>>::Process,
            >;

            fn spec(&self) -> &$spec {
                self.0.spec()
            }

            fn roles(&self) -> hi_core::Roles {
                self.0.roles()
            }

            fn hi_level(&self) -> hi_core::HiLevel {
                self.0.hi_level()
            }

            fn progress(&self) -> hi_core::Progress {
                self.0.progress()
            }

            fn handles(&mut self) -> Vec<Self::Handle<'_>> {
                self.0.handles()
            }

            fn handles_with_probe(
                &mut self,
            ) -> (Vec<Self::Handle<'_>>, Option<$crate::object::OnlineProbe<'_>>) {
                self.0.handles_with_probe()
            }

            fn mem_snapshot(&self) -> Vec<u64> {
                self.0.mem_snapshot()
            }

            fn canonical(
                &self,
                state: &<$spec as hi_core::ObjectSpec>::State,
            ) -> Option<Vec<u64>> {
                self.0.canonical(state)
            }

            fn abstract_state(&self) -> <$spec as hi_core::ObjectSpec>::State {
                self.0.abstract_state()
            }
        }
    };
}
pub(crate) use machine_adapter;

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;

    use hi_core::objects::{
        BoundedQueueSpec, MaxRegisterOp, MaxRegisterSpec, MultiRegisterSpec, QueueOp, QueueResp,
        RegisterOp, RegisterResp, SetOp, SetResp, SetSpec,
    };
    use hi_core::ObjectSpec;
    use hi_sim::ProcessHandle;

    use crate::adapters::{
        HiSetObject, LockFreeHiObject, MaxRegisterObject, QueueObject, VidyasankarObject,
        WaitFreeHiObject,
    };
    use crate::object::{ConcurrentObject, ObjectHandle};
    use crate::threaded::Machines;

    use RegisterOp::{Read, Write};
    use RegisterResp::{Ack, Value};

    /// Applies `op` through handle `role` of `obj` and returns the panic
    /// message it must raise.
    fn rejection<S: ObjectSpec, O: ConcurrentObject<S>>(
        mut obj: O,
        role: usize,
        op: S::Op,
    ) -> String {
        let payload = catch_unwind(AssertUnwindSafe(|| {
            obj.handles()[role].apply(op);
        }))
        .expect_err("the op must be rejected");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload.downcast_ref::<&str>().unwrap().to_string(),
        }
    }

    #[test]
    fn vidyasankar_sequential() {
        let mut reg = VidyasankarObject::new(MultiRegisterSpec::new(5, 1));
        let mut h = reg.handles();
        assert!(!h[0].supports(&Read) && !h[1].supports(&Write(2)));
        h[0].apply(Write(4));
        assert_eq!(h[1].apply(Read), Value(4));
        h[0].apply(Write(2));
        assert_eq!(h[1].apply(Read), Value(2));
    }

    #[test]
    fn lockfree_hi_canonical_after_writes() {
        let mut reg = LockFreeHiObject::new(MultiRegisterSpec::new(4, 2));
        {
            let mut h = reg.handles();
            h[0].apply(Write(3));
            assert_eq!(h[1].apply(Read), Value(3));
        }
        assert_eq!(reg.mem_snapshot(), vec![0, 0, 1, 0]);
    }

    #[test]
    fn waitfree_hi_canonical_when_quiescent() {
        let mut reg = WaitFreeHiObject::new(MultiRegisterSpec::new(4, 1));
        {
            let mut h = reg.handles();
            h[0].apply(Write(3));
            assert_eq!(h[1].apply(Read), Value(3));
            h[0].apply(Write(2));
        }
        assert_eq!(Some(reg.mem_snapshot()), reg.canonical(&2));
    }

    #[test]
    fn waitfree_hi_concurrent_stress() {
        // A writer thread cycling values races a reader thread doing 2000
        // reads; every read must return an in-domain value (reads are
        // wait-free, so the loop always terminates), and after one final
        // solo write the memory must be canonical.
        let k = 6;
        let mut reg = WaitFreeHiObject::new(MultiRegisterSpec::new(k, 1));
        {
            let [mut w, mut r]: [_; 2] = reg.handles().try_into().unwrap();
            let (done, stop) = mpsc::channel::<()>();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let mut round = 0u64;
                    while stop.try_recv().is_err() {
                        w.apply(Write(round % k + 1));
                        round += 1;
                    }
                });
                s.spawn(move || {
                    for _ in 0..2_000 {
                        let RegisterResp::Value(v) = r.apply(Read) else {
                            panic!("a read returns a value")
                        };
                        assert!((1..=k).contains(&v), "read out-of-range value {v}");
                    }
                    done.send(()).unwrap();
                });
            });
        }
        // A second handles() call: the writer keeps its last-val.
        reg.handles()[0].apply(Write(3));
        assert_eq!(Some(reg.mem_snapshot()), reg.canonical(&3));
    }

    #[test]
    fn max_register_is_monotone_and_canonical() {
        let mut reg = MaxRegisterObject::new(MaxRegisterSpec::new(6));
        {
            let mut h = reg.handles();
            for (write, expect) in [(3, 3), (2, 3), (5, 5), (1, 5)] {
                h[0].apply(MaxRegisterOp::WriteMax(write));
                assert_eq!(h[1].apply(MaxRegisterOp::ReadMax), Value(expect));
            }
        }
        assert_eq!(Some(reg.mem_snapshot()), reg.canonical(&5));
        assert_eq!(reg.abstract_state(), 5);
        // The writer's running maximum carries over to the next handles().
        let mut h = reg.handles();
        h[0].apply(MaxRegisterOp::WriteMax(4));
        assert_eq!(
            h[1].apply(MaxRegisterOp::ReadMax),
            Value(5),
            "stale smaller write is a no-op"
        );
    }

    #[test]
    fn max_register_concurrent_reads_stay_in_range() {
        let mut reg = MaxRegisterObject::new(MaxRegisterSpec::new(8));
        {
            let [mut w, mut r]: [_; 2] = reg.handles().try_into().unwrap();
            std::thread::scope(|s| {
                s.spawn(move || {
                    for v in [3u64, 5, 2, 7, 8] {
                        w.apply(MaxRegisterOp::WriteMax(v));
                    }
                });
                s.spawn(move || {
                    let mut last = 1;
                    for _ in 0..2_000 {
                        let RegisterResp::Value(v) = r.apply(MaxRegisterOp::ReadMax) else {
                            panic!("a read returns a value")
                        };
                        assert!((1..=8).contains(&v));
                        assert!(v >= last, "max register went backwards");
                        last = v;
                    }
                });
            });
        }
        assert_eq!(Some(reg.mem_snapshot()), reg.canonical(&8));
    }

    #[test]
    #[should_panic(expected = "write of out-of-range value 5")]
    fn max_register_rejects_out_of_domain_writes() {
        // The register writers make the same check with the same message.
        let spec = MultiRegisterSpec::new(4, 1);
        for msg in [
            rejection(VidyasankarObject::new(spec), 0, Write(5)),
            rejection(LockFreeHiObject::new(spec), 0, Write(0)),
            rejection(WaitFreeHiObject::new(spec), 0, Write(5)),
        ] {
            assert!(msg.starts_with("write of out-of-range value"), "{msg}");
        }
        let mut reg = MaxRegisterObject::new(MaxRegisterSpec::new(4));
        reg.handles()[0].apply(MaxRegisterOp::WriteMax(5));
    }

    #[test]
    #[should_panic(expected = "element 5 out of domain")]
    fn hi_set_rejects_out_of_domain_elements() {
        // The queue's Enqueue makes the same check with the same message.
        let queue = QueueObject::new(BoundedQueueSpec::new(4, 4));
        let msg = rejection(queue, 0, QueueOp::Enqueue(5));
        assert_eq!(msg, "element 5 out of domain");
        let mut set = HiSetObject::new(SetSpec::new(4), 2);
        set.handles()[1].apply(SetOp::Contains(5));
    }

    #[test]
    fn hi_set_every_configuration_is_canonical() {
        let mut set = HiSetObject::new(SetSpec::new(5), 2);
        {
            let (h, probe) = set.handles_with_probe();
            let probe = probe.expect("a perfect-HI object offers a probe");
            let [mut a, mut b]: [_; 2] = h.try_into().unwrap();
            std::thread::scope(|s| {
                s.spawn(move || {
                    for e in [1u32, 3, 5] {
                        a.apply(SetOp::Insert(e));
                    }
                    a.apply(SetOp::Remove(3));
                });
                s.spawn(move || {
                    for e in 1..=5 {
                        b.apply(SetOp::Contains(e));
                    }
                });
                for _ in 0..100 {
                    let verdict = probe.sample();
                    assert!(verdict.canonical, "{verdict:?}");
                }
            });
        }
        assert_eq!(
            Some(set.mem_snapshot()),
            set.canonical(&set.abstract_state())
        );
        let mut h = set.handles();
        for (e, present) in [(1, true), (3, false), (5, true)] {
            assert_eq!(h[0].apply(SetOp::Contains(e)), SetResp::Bool(present));
        }
        drop(h);
        assert_eq!(set.abstract_state(), (1 << 1) | (1 << 5));
    }

    #[test]
    fn vidyasankar_leaks_lockfree_does_not() {
        // The §4 leak, on real atomics: Write(2); Write(1) across two
        // handles() calls vs a single Write(1).
        fn mem_after<O: ConcurrentObject<MultiRegisterSpec>>(
            mut reg: O,
            writes: &[u64],
        ) -> Vec<u64> {
            for &v in writes {
                assert_eq!(reg.handles()[0].apply(Write(v)), Ack);
            }
            reg.mem_snapshot()
        }
        let spec = MultiRegisterSpec::new(3, 3);
        assert_ne!(
            mem_after(VidyasankarObject::new(spec), &[2, 1]),
            mem_after(VidyasankarObject::new(spec), &[1])
        );
        assert_eq!(
            mem_after(LockFreeHiObject::new(spec), &[2, 1]),
            mem_after(LockFreeHiObject::new(spec), &[1])
        );
    }

    #[test]
    fn fifo_round_trip() {
        let mut q = QueueObject::new(BoundedQueueSpec::new(4, 4));
        let mut h = q.handles();
        assert_eq!(h[0].apply(QueueOp::Enqueue(3)), QueueResp::Empty);
        assert_eq!(h[0].apply(QueueOp::Enqueue(1)), QueueResp::Empty);
        assert_eq!(h[1].apply(QueueOp::Peek), QueueResp::Value(3));
        assert_eq!(h[0].apply(QueueOp::Dequeue), QueueResp::Value(3));
        assert_eq!(h[1].apply(QueueOp::Peek), QueueResp::Value(1));
        assert_eq!(h[0].apply(QueueOp::Dequeue), QueueResp::Value(1));
        assert_eq!(h[0].apply(QueueOp::Dequeue), QueueResp::Empty);
        assert_eq!(h[1].apply(QueueOp::Peek), QueueResp::Empty);
    }

    #[test]
    fn canonical_memory_when_quiescent() {
        let mut q = QueueObject::new(BoundedQueueSpec::new(3, 3));
        {
            let mut h = q.handles();
            h[0].apply(QueueOp::Enqueue(2));
            h[0].apply(QueueOp::Enqueue(1));
            h[0].apply(QueueOp::Dequeue);
        }
        assert_eq!(q.abstract_state(), vec![1]);
        assert_eq!(Some(q.mem_snapshot()), q.canonical(&vec![1]));
    }

    #[test]
    fn concurrent_peeks_see_fronts() {
        let mut q = QueueObject::new(BoundedQueueSpec::new(5, 8));
        let [mut m, mut p]: [_; 2] = q.handles().try_into().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut len = 0;
                for round in 0..2_000u32 {
                    m.apply(QueueOp::Enqueue(round % 5 + 1));
                    len += 1;
                    if round % 3 == 0 {
                        m.apply(QueueOp::Dequeue);
                        len -= 1;
                    }
                    while len > 4 {
                        m.apply(QueueOp::Dequeue);
                        len -= 1;
                    }
                }
            });
            s.spawn(move || {
                for _ in 0..2_000 {
                    if let QueueResp::Value(v) = p.apply(QueueOp::Peek) {
                        assert!((1..=5).contains(&v));
                    }
                }
            });
        });
    }

    #[test]
    fn process_state_survives_handles_calls() {
        // The machines live in the object, so their local state is carried
        // from one handles() call to the next, never rebuilt from memory.
        let k = 4;
        let mut reg = WaitFreeHiObject::new(MultiRegisterSpec::new(k, 1));
        reg.handles()[0].apply(Write(3));
        // A reader that has announced itself (flag[1] = 1) makes the next
        // write publish the writer's last-val in B, which must be the 3
        // written through the previous handles() call.
        let Machines { mem, procs, .. } = &mut reg.0;
        procs[1].0.invoke(Read);
        assert!(procs[1].0.step(&mut &*mem).is_none(), "flag[1] <- 1");
        reg.handles()[0].apply(Write(2));
        assert_eq!(reg.mem_snapshot()[k as usize + 2], 1, "B[3] is set");
        let Machines { mem, procs, .. } = &mut reg.0;
        let resp = std::iter::repeat_with(|| procs[1].0.step(&mut &*mem))
            .flatten()
            .next();
        assert_eq!(resp, Some(Value(2)));
        assert_eq!(Some(reg.mem_snapshot()), reg.canonical(&2));
    }
}
