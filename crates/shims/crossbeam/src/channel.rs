//! MPMC channels, mirroring `crossbeam::channel`.
//!
//! A channel is a `Mutex<VecDeque>` plus two condition variables
//! (`not_empty`, `not_full`). Bounded senders block while the queue is
//! full; receivers block while it is empty; dropping the last sender
//! (receiver) disconnects the other side.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when every receiver is gone.
/// Carries the unsent message back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

/// Error returned by [`Receiver::recv`] when the channel is empty and
/// every sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "receiving on an empty channel"),
            TryRecvError::Disconnected => {
                write!(f, "receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => write!(f, "receive timed out"),
            RecvTimeoutError::Disconnected => {
                write!(f, "receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

struct State<T> {
    queue: VecDeque<T>,
    capacity: Option<usize>,
    senders: usize,
    receivers: usize,
}

struct Core<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Core<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The sending half of a channel. Cloneable; the channel disconnects
/// when the last clone is dropped.
pub struct Sender<T> {
    core: Arc<Core<T>>,
}

/// The receiving half of a channel. Cloneable (MPMC); the channel
/// disconnects when the last clone is dropped.
pub struct Receiver<T> {
    core: Arc<Core<T>>,
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver").finish_non_exhaustive()
    }
}

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

/// Creates a bounded channel. A zero capacity is treated as one (the
/// shim has no rendezvous mode; nothing in the workspace uses it).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    with_capacity(Some(capacity.max(1)))
}

fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let core = Arc::new(Core {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            capacity,
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            core: Arc::clone(&core),
        },
        Receiver { core },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.core.lock().senders += 1;
        Sender {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.core.lock();
        state.senders -= 1;
        if state.senders == 0 {
            // Wake receivers so they observe the disconnect.
            self.core.not_empty.notify_all();
        }
    }
}

impl<T> Sender<T> {
    /// Sends `value`, blocking while a bounded channel is full.
    ///
    /// # Errors
    ///
    /// [`SendError`] carrying the value back when every receiver has
    /// been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.core.lock();
        loop {
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            let full = state
                .capacity
                .is_some_and(|capacity| state.queue.len() >= capacity);
            if !full {
                state.queue.push_back(value);
                self.core.not_empty.notify_one();
                return Ok(());
            }
            state = self
                .core
                .not_full
                .wait(state)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Sends without blocking; fails when full or disconnected.
    ///
    /// # Errors
    ///
    /// [`SendError`] when full or when every receiver has been
    /// dropped (the shim does not distinguish the two).
    pub fn try_send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.core.lock();
        if state.receivers == 0
            || state
                .capacity
                .is_some_and(|capacity| state.queue.len() >= capacity)
        {
            return Err(SendError(value));
        }
        state.queue.push_back(value);
        self.core.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.core.lock().receivers += 1;
        Receiver {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.core.lock();
        state.receivers -= 1;
        if state.receivers == 0 {
            // Wake senders so they observe the disconnect.
            self.core.not_full.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Receives a message, blocking until one is available.
    ///
    /// # Errors
    ///
    /// [`RecvError`] when the channel is empty and disconnected.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.core.lock();
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.core.not_full.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self
                .core
                .not_empty
                .wait(state)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Receives a message, blocking up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when nothing arrived in time;
    /// [`RecvTimeoutError::Disconnected`] when empty and
    /// disconnected.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.core.lock();
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.core.not_full.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _) = self
                .core
                .not_empty
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            state = guard;
        }
    }

    /// Receives without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] / [`TryRecvError::Disconnected`].
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.core.lock();
        if let Some(value) = state.queue.pop_front() {
            self.core.not_full.notify_one();
            return Ok(value);
        }
        if state.senders == 0 {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.core.lock().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.core.lock().queue.is_empty()
    }

    /// A blocking iterator: yields messages until the channel is
    /// empty and disconnected.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { receiver: self }
    }

    /// A non-blocking iterator: yields currently queued messages.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { receiver: self }
    }
}

/// Blocking iterator over a receiver. See [`Receiver::iter`].
pub struct Iter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

/// Non-blocking iterator over a receiver. See [`Receiver::try_iter`].
pub struct TryIter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.receiver.try_recv().ok()
    }
}

/// Owning blocking iterator. See [`IntoIterator`] on [`Receiver`].
pub struct IntoIter<T> {
    receiver: Receiver<T>,
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;
    fn into_iter(self) -> IntoIter<T> {
        IntoIter { receiver: self }
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn send_and_recv() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
    }

    #[test]
    fn bounded_blocks_until_space() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let handle = thread::spawn(move || {
            tx.send(2).unwrap(); // blocks until the 1 is consumed
            true
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert!(handle.join().unwrap());
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn recv_timeout_expires() {
        let (_tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn iterator_drains_until_disconnect() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = rx.iter().collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }
}
