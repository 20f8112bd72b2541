//! The bounded job queue between session readers and the worker pool.
//!
//! The front door's admission discipline in one data structure: a
//! producer that finds the queue full gets an immediate `Err` back — the
//! reader turns it into a typed `Overloaded` refusal — instead of the
//! queue growing to absorb the burst. Consumers block until a job
//! arrives or the queue is closed *and* empty, so a graceful drain
//! executes every admitted job before the workers exit.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// The global cap on queued-but-unclaimed jobs across all sessions.
pub const CAP: usize = 64;

struct Inner<J> {
    jobs: VecDeque<J>,
    closed: bool,
}

/// A fixed-capacity MPMC queue: `try_push` never blocks (full = refusal),
/// `pop` blocks until a job or close-and-empty.
pub struct BoundedQueue<J> {
    inner: Mutex<Inner<J>>,
    nonempty: Condvar,
    depth: Arc<hcc_obs::Gauge>,
}

impl<J> BoundedQueue<J> {
    /// A queue admitting at most [`CAP`] queued jobs, mirroring its depth
    /// into `depth` (the `net.queue.depth` gauge).
    pub fn new(depth: Arc<hcc_obs::Gauge>) -> BoundedQueue<J> {
        let inner = Mutex::new(Inner { jobs: VecDeque::with_capacity(CAP), closed: false });
        BoundedQueue { inner, nonempty: Condvar::new(), depth }
    }

    /// Admit `job`, or hand it straight back: `Err((job, depth))` when
    /// the queue is at capacity (shed it) or closed (drain refusal).
    pub fn try_push(&self, job: J) -> Result<(), (J, usize)> {
        let mut inner = self.inner.lock();
        if inner.closed || inner.jobs.len() >= CAP {
            let depth = inner.jobs.len();
            drop(inner);
            return Err((job, depth));
        }
        inner.jobs.push_back(job);
        self.depth.set(inner.jobs.len() as i64);
        drop(inner);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Block for the next job; `None` once the queue is closed and every
    /// admitted job has been taken.
    pub fn pop(&self) -> Option<J> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                self.depth.set(inner.jobs.len() as i64);
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            self.nonempty.wait(&mut inner);
        }
    }

    /// Stop admitting; wake every blocked consumer so the pool can drain
    /// the remainder and exit.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.nonempty.notify_all();
    }
}
