//! The bounded job queue between connection threads and compute workers.
//!
//! Connection threads never simulate; they parse, enqueue, and wait for
//! the worker's reply. The queue is the backpressure point: it holds at
//! most `capacity` jobs, and a full queue rejects immediately
//! ([`PushError::Full`] → HTTP 503 + `Retry-After`) instead of letting
//! latency grow without bound. Workers block on [`JobQueue::pop`] until
//! a job arrives or the queue is closed.
//!
//! Shutdown semantics ("graceful drain"): [`JobQueue::close`] stops new
//! pushes but lets workers keep popping until the queue is **empty** —
//! every accepted job gets a response before the workers exit. This is
//! what the backpressure integration test pins: no torn or dropped
//! responses across shutdown.
//!
//! The implementation is the std-only classic: `Mutex<VecDeque>` +
//! `Condvar`. The `serve.queue_depth` gauge tracks occupancy and
//! `serve.queue.rejected` counts 503s.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — the client should retry later.
    Full,
    /// The queue is closed — the server is shutting down.
    Closed,
}

struct Inner<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue with blocking pop and close-to-drain shutdown.
pub struct JobQueue<T> {
    /// Every lock recovers a poisoned mutex: no code panics while holding
    /// it, so one panicking request cannot fail every later one.
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// A queue holding at most `capacity` jobs (minimum 1).
    pub fn new(capacity: usize) -> JobQueue<T> {
        JobQueue {
            inner: Mutex::new(Inner {
                jobs: VecDeque::with_capacity(capacity.max(1).min(1024)),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues a job, failing fast when full or closed.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`JobQueue::close`].
    pub fn try_push(&self, job: T) -> Result<(), PushError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.jobs.len() >= self.capacity {
            plateau_obs::counter!("serve.queue.rejected").inc();
            return Err(PushError::Full);
        }
        inner.jobs.push_back(job);
        plateau_obs::gauge!("serve.queue_depth").set(inner.jobs.len() as f64);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is available (returning it) or the queue is
    /// closed **and drained** (returning `None` — the worker should
    /// exit).
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                plateau_obs::gauge!("serve.queue_depth").set(inner.jobs.len() as f64);
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops new pushes; queued jobs continue to be popped until empty,
    /// then every blocked and future [`JobQueue::pop`] returns `None`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }

    /// Current occupancy.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).jobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_within_capacity() {
        let q = JobQueue::new(3);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let q = JobQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        // Popping frees a slot.
        q.pop();
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_drains_then_wakes_poppers() {
        let q = Arc::new(JobQueue::new(4));
        q.try_push(10).unwrap();
        q.try_push(11).unwrap();
        q.close();
        assert_eq!(q.try_push(12), Err(PushError::Closed));
        // Accepted jobs still come out, in order, before the None.
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), None);

        // A popper blocked on an empty queue is woken by close.
        let q2: Arc<JobQueue<i32>> = Arc::new(JobQueue::new(1));
        let waiter = {
            let q2 = Arc::clone(&q2);
            std::thread::spawn(move || q2.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q2.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(JobQueue::new(8));
        let n_producers = 4;
        let per_producer = 50;
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..n_producers)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..per_producer {
                        let job = p * per_producer + i;
                        // Spin on Full — producers outpace consumers.
                        while q.try_push(job) == Err(PushError::Full) {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..n_producers * per_producer).collect();
        assert_eq!(all, expect);
    }
}
