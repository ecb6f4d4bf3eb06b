//! The async tenant handle: [`AsyncEngine`] is `Engine<Cores>`, the
//! one [`Engine`] type over the fleet's transport instead of dedicated
//! shard threads.
//!
//! Only four calls differ from the sync handle.
//! [`insert`](AsyncEngine::insert) / [`delete`](AsyncEngine::delete) /
//! [`flush`](AsyncEngine::flush) return an [`Ack`] and
//! [`quiesce`](AsyncEngine::quiesce) a [`QuiesceFuture`] — lightweight
//! futures over per-batch completions: every request buffered into one
//! batch shares that batch's completion, which fires when a fleet worker
//! has applied the shipped task (or when the task is dropped unapplied).
//! No executor is assumed: await them in any runtime, drive them with
//! [`realloc_common::block_on`], or drop them (the request is still
//! served). Every other method, rebalancing and the auto policy
//! included, is the code the sync handle runs.
//!
//! ## Observational equivalence with the sync engine
//!
//! Both handles share the router, the batching law and the barriers, and
//! the per-core apply sequence (see [`fleet`](crate::fleet)) serves a
//! core's tasks in the order a dedicated shard thread would. Extents,
//! substrate bytes, stats (including batch counts), ledgers, rebalance
//! reports and the deterministic metrics projection therefore match the
//! sync engine exactly; `tests/async_facade.rs` pins this property for
//! all four registry variants. What does *not* match is scheduling:
//! wall-clock histograms, intake stalls, and the
//! [`StealStats`](crate::metrics::StealStats) block are excluded from
//! metric equality for exactly that reason.

use std::future::Future;
use std::pin::Pin;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

use realloc_common::{block_on, ObjectId};
use workload_gen::Request;

use crate::engine::{Engine, EngineError};
use crate::fleet::Cores;
use crate::frontend::{aggregate, collect};
use crate::shard::ShardReply;
use crate::stats::EngineStats;

/// One shipped task's completion, shared by every [`Ack`] it covers (a
/// batch's by each of its requests' acks; a per-core fan-out's by one
/// future). It fires once every [`Completer`] share has dropped — a
/// share drops when the task carrying it has been applied, or with the
/// task if it never will be (a crashed tenant's unsent buffer, a
/// torn-down fleet's queue), so no waiter hangs on work that cannot run.
pub(crate) struct Completion {
    state: Mutex<Waiters>,
}

struct Waiters {
    /// Live [`Completer`] shares; the completion has fired at zero.
    shares: usize,
    wakers: Vec<Waker>,
}

impl Completion {
    fn poll(&self, cx: &mut Context<'_>) -> Poll<()> {
        let mut state = self.state.lock().expect("completion poisoned");
        if state.shares == 0 {
            return Poll::Ready(());
        }
        if !state.wakers.iter().any(|w| w.will_wake(cx.waker())) {
            state.wakers.push(cx.waker().clone());
        }
        Poll::Pending
    }
}

/// A share of a [`Completion`], carried by a shipped task; the completion
/// fires when the last share drops. Cloning adds a share.
///
/// The last drop wakes every registered waker *before* it releases the
/// completion's lock, so a poll that sees the completion fired knows every
/// waker registered before it has already run. A waker must therefore not
/// poll the completion inline: that poll would wait on the lock its own
/// wake holds.
pub(crate) struct Completer(Arc<Completion>);

impl Completer {
    /// A fresh completion with this one share.
    pub(crate) fn new() -> Completer {
        Completer(Arc::new(Completion {
            state: Mutex::new(Waiters {
                shares: 1,
                wakers: Vec::new(),
            }),
        }))
    }

    pub(crate) fn completion(&self) -> Arc<Completion> {
        Arc::clone(&self.0)
    }
}

impl Clone for Completer {
    fn clone(&self) -> Completer {
        self.0.state.lock().expect("completion poisoned").shares += 1;
        Completer(Arc::clone(&self.0))
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().expect("completion poisoned");
        state.shares -= 1;
        if state.shares == 0 {
            for waker in state.wakers.drain(..) {
                waker.wake();
            }
        }
    }
}

/// A batch-completion future: resolves once every request it covers has
/// been applied by its core (and, on a WAL'd tenant, group-committed).
///
/// Dropping an `Ack` is always safe — the work still happens, only the
/// notification is discarded. If the fleet is torn down while tasks are
/// still queued, orphaned acks resolve instead of hanging.
pub struct Ack(pub(crate) Arc<Completion>);

impl Ack {
    /// Blocks the current thread until the ack resolves (a
    /// [`block_on`] convenience).
    pub fn wait(self) {
        block_on(self)
    }
}

impl Future for Ack {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.0.poll(cx)
    }
}

/// The future returned by [`AsyncEngine::quiesce`]: resolves to the same
/// aggregated [`EngineStats`] (with the same error surfacing) the sync
/// [`Engine::quiesce`] barrier returns.
pub struct QuiesceFuture {
    ack: Ack,
    replies: Option<Vec<Receiver<ShardReply>>>,
}

impl QuiesceFuture {
    /// Blocks the current thread until the quiesce completes.
    pub fn wait(self) -> Result<EngineStats, EngineError> {
        block_on(self)
    }
}

impl Future for QuiesceFuture {
    type Output = Result<EngineStats, EngineError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if Pin::new(&mut self.ack).poll(cx).is_pending() {
            return Poll::Pending;
        }
        // Every core has replied or dropped its command (a torn-down
        // fleet), so collecting cannot block.
        let replies = self
            .replies
            .take()
            .expect("quiesce future polled after completion");
        Poll::Ready(collect(replies).and_then(aggregate))
    }
}

/// A held core lock (testing): while alive, no worker — home or thief —
/// can apply this core's tasks, so a steal attempt deterministically
/// takes the lock-conflict edge.
#[doc(hidden)]
pub struct CoreHold<'a> {
    _guard: std::sync::MutexGuard<'a, crate::fleet::CoreState>,
}

/// One tenant's handle onto a [`Fleet`](crate::Fleet): the same
/// [`Engine`] type as the sync handle, over the fleet's [`Cores`] instead
/// of dedicated shard threads. Build one with
/// [`Fleet::register`](crate::Fleet::register) (or the WAL'd / pinned
/// variants). Besides the methods both handles share — barriers, the
/// metrics scrape, rebalancing and the auto policy, fault injection,
/// shutdown and crash — a tenant has its own future-returning
/// [`insert`](AsyncEngine::insert), [`delete`](AsyncEngine::delete),
/// [`flush`](AsyncEngine::flush) and [`quiesce`](AsyncEngine::quiesce).
pub type AsyncEngine = Engine<Cores>;

impl Engine<Cores> {
    /// The fleet-assigned tenant ordinal (registration order).
    pub fn tenant(&self) -> usize {
        self.transport.tenant
    }

    /// Enqueues `〈INSERTOBJECT, id, size〉` on the owning core. The
    /// returned [`Ack`] resolves when the batch carrying the request has
    /// been applied — which means a request still sitting in a *partial*
    /// client-side buffer resolves only once a full batch, a
    /// [`flush`](AsyncEngine::flush), or a barrier ships it; awaiting an
    /// `Ack` without a flush point in between can therefore block
    /// forever, exactly as a sync caller blocking on an unflushed
    /// buffer would. Like the sync engine, a rejection by the
    /// reallocator (e.g. a duplicate id) surfaces at the next barrier,
    /// not here. Unlike it, serving does not step an online rebalance
    /// session; [`rebalance_step`](Engine::rebalance_step) does.
    pub fn insert(&mut self, id: ObjectId, size: u64) -> Ack {
        self.submit(Request::Insert { id, size })
    }

    /// Enqueues `〈DELETEOBJECT, id〉` on the owning core. Same contract
    /// as [`insert`](AsyncEngine::insert).
    pub fn delete(&mut self, id: ObjectId) -> Ack {
        self.submit(Request::Delete { id })
    }

    fn submit(&mut self, req: Request) -> Ack {
        let shard = self.router.route(req.id());
        let ack = Ack(self.batch_completion(shard));
        // Fleet shipping cannot fail: a torn-down fleet drops the task,
        // which resolves the ack.
        let _ = self.enqueue(shard, req);
        ack
    }

    /// Ships every partially filled batch and returns an [`Ack`] that
    /// resolves once *everything* enqueued so far — on every core — has
    /// been applied.
    pub fn flush(&mut self) -> Ack {
        self.ship_buffers();
        Ack(self.fence())
    }

    /// Drains every core (each runs `Reallocator::quiesce`; a WAL'd core
    /// checkpoints and truncates its log) and resolves to the aggregated
    /// stats — the async form of the sync quiesce barrier, with the same
    /// error surfacing. It does not feed an installed auto-rebalance
    /// policy; [`snapshot`](Engine::snapshot) does.
    pub fn quiesce(&mut self) -> QuiesceFuture {
        let done = Completer::new();
        let replies = self.start_quiesce(Some(&done));
        QuiesceFuture {
            ack: Ack(done.completion()),
            replies: Some(replies),
        }
    }

    /// Testing hook: locks core `shard` until the returned guard drops,
    /// forcing any steal attempt on it down the lock-conflict edge.
    #[doc(hidden)]
    pub fn hold_core(&self, shard: usize) -> CoreHold<'_> {
        CoreHold {
            _guard: self.transport.lock_core(shard),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::Command;

    #[test]
    fn every_ack_sharing_one_completion_resolves() {
        let done = Completer::new();
        let acks = (0..32).map(|_| Ack(done.completion()));
        // Every other ack is dropped unpolled, which must not matter.
        let kept: Vec<Ack> = acks.step_by(2).collect();
        drop(done); // the batch was applied
        for ack in kept.into_iter().rev() {
            ack.wait();
        }
    }

    #[test]
    fn completion_dropped_unapplied_still_resolves() {
        let done = Completer::new();
        let ack = Ack(done.completion());
        // A torn-down executor drops its queue, and every queued task's
        // share with it.
        drop(std::collections::VecDeque::from([(Command::Fence, done)]));
        ack.wait();
    }

    #[test]
    fn worker_thread_wake_reaches_block_on() {
        let done = Completer::new();
        let ack = Ack(done.completion());
        let worker = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(done);
        });
        ack.wait();
        worker.join().unwrap();
    }

    /// A poll that sees the completion fired must find every registered
    /// waker already run, even one that is slow to wake.
    #[test]
    fn resolved_ack_has_woken_its_waker() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::task::Wake;

        struct SlowWaker(AtomicBool);
        impl Wake for SlowWaker {
            fn wake(self: Arc<Self>) {
                std::thread::sleep(std::time::Duration::from_millis(50));
                self.0.store(true, Ordering::SeqCst);
            }
        }

        let done = Completer::new();
        let mut ack = Ack(done.completion());
        let slow = Arc::new(SlowWaker(AtomicBool::new(false)));
        let waker = Waker::from(Arc::clone(&slow));
        assert!(Pin::new(&mut ack)
            .poll(&mut Context::from_waker(&waker))
            .is_pending());
        let worker = std::thread::spawn(move || drop(done));
        let mut cx = Context::from_waker(Waker::noop());
        while Pin::new(&mut ack).poll(&mut cx).is_pending() {
            std::hint::spin_loop();
        }
        assert!(
            slow.0.load(Ordering::SeqCst),
            "the ack resolved before its waker ran"
        );
        worker.join().unwrap();
    }

    #[test]
    fn fanout_completion_waits_for_every_share() {
        let done = Completer::new();
        let shares: Vec<Completer> = (0..4).map(|_| done.clone()).collect();
        let mut ack = Ack(done.completion());
        drop(done);
        let mut cx = Context::from_waker(Waker::noop());
        for share in shares {
            assert!(Pin::new(&mut ack).poll(&mut cx).is_pending());
            drop(share);
        }
        assert!(Pin::new(&mut ack).poll(&mut cx).is_ready());
    }
}
