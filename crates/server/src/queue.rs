//! The bounded admission queue.
//!
//! Admission control is the daemon's backpressure mechanism: a request
//! either gets a queue slot *at admission time* or is rejected immediately
//! with a typed `overloaded` response. Nothing in the daemon buffers
//! unboundedly — memory for queued work is `capacity × request size`, and
//! clients learn about saturation synchronously instead of via timeouts.
//!
//! `Mutex<VecDeque> + Condvar` rather than a channel: `try_push` must fail
//! *without blocking* when full (std's `SyncSender::try_send` would also
//! work, but it cannot report queue depth, which `stats` exposes).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// A bounded MPMC queue with non-blocking admission and blocking removal
/// until it is closed.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(State { items: VecDeque::with_capacity(capacity), closed: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits `item` if a slot is free; returns it back on a full queue.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut q = self.state.lock().expect("queue lock");
        if q.items.len() >= self.capacity {
            return Err(item);
        }
        q.items.push_back(item);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Removes the oldest item, blocking while the queue is empty and
    /// open. `None` once the queue is closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut q = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = q.items.pop_front() {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).expect("queue lock");
        }
    }

    /// Marks the end of input: consumers drain what is queued, then every
    /// `pop` returns `None`. Call it once the last producer is done.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn rejects_when_full_and_frees_on_pop() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "full queue returns the item");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok(), "slot freed");
    }

    #[test]
    fn producers_wake_blocked_consumers() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(42u32).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    /// Closing never loses queued work, and releases a consumer waiting on
    /// an empty queue. (Whether the consumer is already blocked when
    /// `close` runs or arrives after it, `pop` must return `None`; the
    /// sleep only makes the blocked case the likely one.)
    #[test]
    fn close_drains_queued_items_then_releases_blocked_consumers() {
        let q = BoundedQueue::new(4);
        q.try_push(1u32).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!((q.pop(), q.pop(), q.pop()), (Some(1), Some(2), None));

        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.try_push(1).is_ok());
        assert_eq!(q.try_push(2), Err(2));
    }
}
