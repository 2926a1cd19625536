//! Bounded blocking channels for shard pipelines.
//!
//! The sharded replay engine (`s3-wlan`) runs one worker thread per
//! controller-domain shard and exchanges *chunked* payloads with a
//! coordinator — each message carries a flat `Vec` of cycles, so channel
//! traffic is amortized over many cycles and capacities stay tiny. Those
//! exchanges need exactly one primitive: a bounded
//! MPSC channel whose `send` blocks when the peer is behind (natural
//! backpressure bounds the number of in-flight cycles) and whose both
//! ends unblock promptly when the other side goes away — a worker must
//! never deadlock because the coordinator aborted on an error, and vice
//! versa. `std::sync::mpsc::sync_channel(n)` has those semantics, but its
//! receiver cannot say how many messages are waiting, and the merger
//! samples exactly that for every shard at every chunk barrier, through
//! [`Receiver::len`], into the `wlan.shard.channel_occupancy` histogram.
//! This workspace vendors no runtime crates, so the channel is
//! hand-rolled on [`std::sync::Mutex`] + two [`std::sync::Condvar`]s.
//!
//! Determinism note: the channel carries no ordering decisions — message
//! order per sender is FIFO, and the sharded engine merges streams by
//! explicit keys, never by receipt timing.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// The peer of a channel endpoint has been dropped; no further messages
/// can flow. The undelivered message is returned to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct Disconnected<T>(pub T);

struct State<T> {
    queue: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Sending half of a bounded channel; clone for multiple producers.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half of a bounded channel (single consumer).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded channel holding at most `capacity` undelivered
/// messages (`capacity` is clamped to at least 1).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            capacity: capacity.max(1),
            senders: 1,
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

impl<T> Sender<T> {
    /// Delivers `value`, blocking while the channel is full.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] (returning `value`) if the receiver has been
    /// dropped — including while this call was blocked on a full queue.
    pub fn send(&self, value: T) -> Result<(), Disconnected<T>> {
        let mut state = self.shared.state.lock().expect("mailbox lock poisoned");
        loop {
            if !state.receiver_alive {
                return Err(Disconnected(value));
            }
            if state.queue.len() < state.capacity {
                state.queue.push_back(value);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            state = self
                .shared
                .not_full
                .wait(state)
                .expect("mailbox lock poisoned");
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared
            .state
            .lock()
            .expect("mailbox lock poisoned")
            .senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("mailbox lock poisoned");
        state.senders -= 1;
        if state.senders == 0 {
            // Wake a receiver blocked on an empty queue so it observes
            // end-of-stream.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Takes the next message, blocking while the channel is empty.
    /// Returns `None` once the channel is empty *and* every sender has
    /// been dropped (end of stream).
    pub fn recv(&self) -> Option<T> {
        let mut state = self.shared.state.lock().expect("mailbox lock poisoned");
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Some(value);
            }
            if state.senders == 0 {
                return None;
            }
            state = self
                .shared
                .not_empty
                .wait(state)
                .expect("mailbox lock poisoned");
        }
    }
}

impl<T> Receiver<T> {
    /// Number of undelivered messages currently queued. A snapshot — by the
    /// time the caller acts, senders may have queued more. The sharded
    /// engine samples this before blocking to export channel occupancy as a
    /// metric (`wlan.shard.channel_occupancy`).
    pub fn len(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("mailbox lock poisoned")
            .queue
            .len()
    }

    /// Whether the queue is currently empty (same snapshot caveat as
    /// [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("mailbox lock poisoned");
        state.receiver_alive = false;
        // Undelivered messages are dropped; senders blocked on a full
        // queue must wake up and observe the disconnect.
        state.queue.clear();
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_arrive_in_fifo_order() {
        let (tx, rx) = bounded(8);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recv_returns_none_after_all_senders_drop() {
        let (tx, rx) = bounded::<u8>(4);
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(9).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Some(9));
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.recv(), None, "end of stream is sticky");
    }

    #[test]
    fn send_errors_once_receiver_is_gone() {
        let (tx, rx) = bounded(4);
        drop(rx);
        assert_eq!(tx.send(7), Err(Disconnected(7)));
    }

    #[test]
    fn full_channel_blocks_until_a_slot_frees() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let handle = std::thread::spawn(move || {
            tx.send(2).unwrap(); // blocks until the first recv
            3
        });
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(handle.join().unwrap(), 3);
    }

    #[test]
    fn blocked_sender_unblocks_when_receiver_drops() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let handle = std::thread::spawn(move || tx.send(2));
        // Give the sender a moment to block on the full queue, then
        // disconnect; the send must fail instead of hanging.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert_eq!(handle.join().unwrap(), Err(Disconnected(2)));
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let (tx, rx) = bounded(0);
        tx.send(1).unwrap();
        assert_eq!(rx.recv(), Some(1));
    }
}
