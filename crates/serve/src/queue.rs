//! A bounded MPMC admission queue with explicit load shedding.
//!
//! The server's accept loop must never block on a slow worker pool, so
//! admission uses [`BoundedQueue::try_push`]: when the queue is at
//! capacity the push fails *immediately* and the caller sheds the job
//! with a structured `rejected: overloaded` response. Workers block on
//! [`BoundedQueue::pop`] until a job arrives or the queue is closed for
//! drain.
//!
//! Built on `Mutex` + `Condvar` only — no async runtime, matching the
//! workspace's std-only constraint.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; the job must be shed, not queued.
    Full,
    /// The queue has been closed (server draining); no new admissions.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity FIFO shared between the accept loop and the worker
/// pool. See the [module docs](self) for the shedding contract.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` pending items (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Non-blocking admission: enqueues `item` unless the queue is full
    /// or closed.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity (load-shed the item),
    /// [`PushError::Closed`] after [`BoundedQueue::close_and_drain`]. The item
    /// rides back in the error so the caller can report on it.
    pub fn try_push(&self, item: T) -> Result<(), (PushError, T)> {
        let mut s = self.state.lock().expect("queue lock poisoned");
        if s.closed {
            return Err((PushError::Closed, item));
        }
        if s.items.len() >= self.capacity {
            return Err((PushError::Full, item));
        }
        s.items.push_back(item);
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// empty; `None` means the worker should exit.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).expect("queue lock poisoned");
        }
    }

    /// Closes the queue and removes every not-yet-claimed item,
    /// returning them so the caller can mark each one shed.
    pub fn close_and_drain(&self) -> Vec<T> {
        let mut s = self.state.lock().expect("queue lock poisoned");
        s.closed = true;
        let shed = s.items.drain(..).collect();
        drop(s);
        self.ready.notify_all();
        shed
    }

    /// Items currently waiting (racy by nature; for stats reporting).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sheds_at_capacity_and_reports_closed() {
        let q = BoundedQueue::new(2);
        q.try_push(1).expect("fits");
        q.try_push(2).expect("fits");
        assert_eq!(q.try_push(3), Err((PushError::Full, 3)));
        assert_eq!(q.depth(), 2);

        assert_eq!(q.pop(), Some(1));
        q.try_push(3).expect("space freed");

        // Closing hands back the queued items for shedding.
        assert_eq!(q.close_and_drain(), vec![2, 3]);
        assert_eq!(q.try_push(4), Err((PushError::Closed, 4)));
        assert_eq!(q.pop(), None, "closed and empty");
    }

    #[test]
    fn close_and_drain_returns_the_unclaimed_tail() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).expect("fits");
        }
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.close_and_drain(), vec![1, 2, 3, 4]);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_workers_wake_on_push_and_on_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for i in 0..50 {
            loop {
                match q.try_push(i) {
                    Ok(()) => break,
                    Err((PushError::Full, _)) => std::thread::yield_now(),
                    Err((PushError::Closed, _)) => unreachable!("not closed yet"),
                }
            }
        }
        // Let the workers drain, then close so they exit.
        while q.depth() > 0 {
            std::thread::yield_now();
        }
        assert!(q.close_and_drain().is_empty());
        let mut all: Vec<i32> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker ok"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>(), "no loss, no duplication");
    }
}
