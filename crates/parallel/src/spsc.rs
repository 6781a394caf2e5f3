//! A bounded single-producer single-consumer channel.
//!
//! The sharded engine sends each batch to a worker and back again over
//! exactly-one-producer/exactly-one-consumer links, and needs
//! the queue *bounded* so a fast producer exerts backpressure instead
//! of buffering the whole stream (the constant-memory guarantee of the
//! streaming core must survive parallelism). `std::sync::mpsc` offers
//! either unbounded channels or rendezvous-ish `sync_channel`; this is
//! the same idea specialised to what the engine relies on:
//!
//! - capacity-bounded `send` that blocks, plus [`try_send`] for callers
//!   that must not block (the merger drains results instead);
//! - `recv` that returns `None` once the producer is gone and the queue
//!   is drained — the disconnect signal doubles as worker-panic
//!   detection, because a panicking worker drops its `Sender` on
//!   unwind;
//! - endpoints are **not** clonable, keeping the SPSC discipline a type
//!   level fact.
//!
//! Built on `Mutex<VecDeque>` with two condvars (not-empty, not-full)
//! in the style of *Rust Atomics and Locks* — `std` only, as everywhere
//! in this crate.
//!
//! [`try_send`]: Sender::try_send

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled when an item is pushed or the sender disconnects.
    not_empty: Condvar,
    /// Signalled when an item is popped or the receiver disconnects.
    not_full: Condvar,
}

struct Inner<T> {
    queue: VecDeque<T>,
    cap: usize,
    sender_alive: bool,
    receiver_alive: bool,
}

/// Creates a channel holding at most `cap` in-flight items.
///
/// # Panics
/// Panics if `cap == 0`.
pub fn channel<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap >= 1, "channel capacity must be positive");
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::with_capacity(cap),
            cap,
            sender_alive: true,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Why a [`Sender::try_send`] failed; the value comes back in both
/// cases.
#[derive(Debug)]
pub enum TrySendError<T> {
    /// The queue is at capacity; retry after the receiver drains.
    Full(T),
    /// The receiver is gone; no send can ever succeed again.
    Closed(T),
}

/// The producing endpoint. Dropping it closes the channel once the
/// queue drains.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Blocks until the item is enqueued, or returns it back if the
    /// receiver disconnected.
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut inner = self.shared.inner.lock().expect("spsc lock poisoned");
        loop {
            if !inner.receiver_alive {
                return Err(value);
            }
            if inner.queue.len() < inner.cap {
                inner.queue.push_back(value);
                drop(inner);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            inner = self
                .shared
                .not_full
                .wait(inner)
                .expect("spsc lock poisoned");
        }
    }

    /// Enqueues without blocking, or reports why it cannot.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut inner = self.shared.inner.lock().expect("spsc lock poisoned");
        if !inner.receiver_alive {
            return Err(TrySendError::Closed(value));
        }
        if inner.queue.len() >= inner.cap {
            return Err(TrySendError::Full(value));
        }
        inner.queue.push_back(value);
        drop(inner);
        self.shared.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("spsc lock poisoned");
        inner.sender_alive = false;
        drop(inner);
        self.shared.not_empty.notify_one();
    }
}

/// The consuming endpoint. Dropping it makes all further sends fail
/// fast (the producer sees `Closed` and can abandon work).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Blocks for the next item; `None` means the sender is gone *and*
    /// the queue is drained — the channel will never yield again.
    pub fn recv(&self) -> Option<T> {
        let mut inner = self.shared.inner.lock().expect("spsc lock poisoned");
        loop {
            if let Some(v) = inner.queue.pop_front() {
                drop(inner);
                self.shared.not_full.notify_one();
                return Some(v);
            }
            if !inner.sender_alive {
                return None;
            }
            inner = self
                .shared
                .not_empty
                .wait(inner)
                .expect("spsc lock poisoned");
        }
    }

    /// Pops the next item if one is ready, without blocking. `None`
    /// means "nothing right now" — use [`recv`](Receiver::recv) to
    /// distinguish empty from closed.
    pub fn try_recv(&self) -> Option<T> {
        let mut inner = self.shared.inner.lock().expect("spsc lock poisoned");
        let v = inner.queue.pop_front();
        drop(inner);
        if v.is_some() {
            self.shared.not_full.notify_one();
        }
        v
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("spsc lock poisoned");
        inner.receiver_alive = false;
        drop(inner);
        self.shared.not_full.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ships_items_in_order() {
        let (tx, rx) = channel(4);
        let producer = std::thread::spawn(move || {
            for i in 0..1000u32 {
                tx.send(i).expect("receiver alive");
            }
        });
        for i in 0..1000u32 {
            assert_eq!(rx.recv(), Some(i));
        }
        assert_eq!(rx.recv(), None);
        producer.join().unwrap();
    }

    #[test]
    fn capacity_bounds_the_queue() {
        let (tx, rx) = channel(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        match tx.try_send(3) {
            Err(TrySendError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert_eq!(rx.try_recv(), Some(1));
        tx.try_send(3).expect("slot freed");
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), Some(3));
    }

    #[test]
    fn dropped_sender_closes_after_drain() {
        let (tx, rx) = channel::<u32>(4);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(7));
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn dropped_receiver_fails_sends_fast() {
        let (tx, rx) = channel::<u32>(1);
        drop(rx);
        assert_eq!(tx.send(1), Err(1));
        match tx.try_send(2) {
            Err(TrySendError::Closed(2)) => {}
            other => panic!("expected Closed(2), got {other:?}"),
        }
    }

    #[test]
    fn blocking_send_wakes_on_drain() {
        let (tx, rx) = channel(1);
        tx.send(0u32).unwrap();
        let producer = std::thread::spawn(move || tx.send(1));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(rx.recv(), Some(0));
        assert_eq!(rx.recv(), Some(1));
        producer.join().unwrap().expect("receiver alive");
    }

    #[test]
    fn non_blocking_ends_wake_blocked_peers() {
        // A receiver blocked on an empty queue wakes on `try_send`, and a
        // sender blocked on a full one wakes on `try_recv`.
        let (tx, rx) = channel(1);
        let consumer = std::thread::spawn(move || (rx.recv(), rx));
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx.try_send(1u32).expect("room for one");
        let (first, rx) = consumer.join().unwrap();
        assert_eq!(first, Some(1));
        tx.try_send(2).expect("drained");
        let producer = std::thread::spawn(move || tx.send(3));
        std::thread::sleep(std::time::Duration::from_millis(10));
        let mut got = Vec::new();
        while got.len() < 2 {
            got.extend(rx.try_recv());
        }
        assert_eq!(got, [2, 3]);
        producer.join().unwrap().expect("receiver alive");
    }
}
