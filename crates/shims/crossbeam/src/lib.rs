//! Vendored, minimal `crossbeam`-compatible MPMC channels — unbounded and
//! bounded, blocking, timed and non-blocking send and receive — exactly the
//! surface this workspace uses.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct ChanState<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<ChanState<T>>,
        cap: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Sending half; cloneable (MPMC).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; cloneable (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Create a bounded channel; sends block when `cap` messages are queued.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap))
    }

    fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(ChanState { queue: VecDeque::new(), senders: 1, receivers: 1 }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
    }

    /// All receivers disconnected; the message is handed back.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// All senders disconnected and the queue is drained.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty, disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Outcome of [`Receiver::recv_timeout`] failure.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived in time.
        Timeout,
        /// All senders disconnected.
        Disconnected,
    }

    /// Outcome of [`Receiver::try_recv`] failure.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Queue currently empty.
        Empty,
        /// All senders disconnected.
        Disconnected,
    }

    /// Outcome of [`Sender::try_send`] failure; the message is handed back.
    pub enum TrySendError<T> {
        /// Bounded channel at capacity.
        Full(T),
        /// All receivers disconnected.
        Disconnected(T),
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }

    impl<T> Sender<T> {
        /// Send `msg`, blocking if the channel is bounded and full.
        ///
        /// # Errors
        /// [`SendError`] when every receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(cap) = self.shared.cap {
                while state.queue.len() >= cap && state.receivers > 0 {
                    state =
                        self.shared.not_full.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
            }
            if state.receivers == 0 {
                return Err(SendError(msg));
            }
            state.queue.push_back(msg);
            self.shared.not_empty.notify_one();
            Ok(())
        }

        /// Non-blocking send: fails with `Full` instead of waiting when a
        /// bounded channel is at capacity.
        ///
        /// # Errors
        /// [`TrySendError::Full`] at capacity, [`TrySendError::Disconnected`]
        /// when every receiver is gone.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if let Some(cap) = self.shared.cap {
                if state.queue.len() >= cap {
                    return Err(TrySendError::Full(msg));
                }
            }
            state.queue.push_back(msg);
            self.shared.not_empty.notify_one();
            Ok(())
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.state.lock().unwrap_or_else(PoisonError::into_inner).queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.senders += 1;
            drop(state);
            Sender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.senders -= 1;
            if state.senders == 0 {
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives.
        ///
        /// # Errors
        /// [`RecvError`] when the channel is empty and all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(msg) = self.pop(&mut state) {
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.shared.not_empty.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Block until a message arrives or `timeout` passes.
        ///
        /// # Errors
        /// `Timeout` or `Disconnected`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(msg) = self.pop(&mut state) {
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (g, _res) = self
                    .shared
                    .not_empty
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                state = g;
            }
        }

        /// Non-blocking receive.
        ///
        /// # Errors
        /// `Empty` or `Disconnected`.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(msg) = self.pop(&mut state) {
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.state.lock().unwrap_or_else(PoisonError::into_inner).queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Take the front message. Only a bounded channel can have a sender
        /// waiting for room, so only a bounded one wakes it.
        fn pop(&self, state: &mut ChanState<T>) -> Option<T> {
            let msg = state.queue.pop_front()?;
            if self.shared.cap.is_some() {
                self.shared.not_full.notify_one();
            }
            Some(msg)
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.receivers += 1;
            drop(state);
            Receiver { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.receivers -= 1;
            if state.receivers == 0 {
                self.shared.not_full.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn mpmc_roundtrip_and_disconnect() {
            let (tx, rx) = unbounded::<u32>();
            let rx2 = rx.clone();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx2.recv().unwrap(), 2);
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(
                rx2.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn bounded_blocks_until_drained() {
            let (tx, rx) = bounded::<u32>(1);
            tx.send(1).unwrap();
            let t = thread::spawn(move || tx.send(2).unwrap());
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 2);
            t.join().unwrap();
        }

        #[test]
        fn try_send_full_and_disconnected() {
            let (tx, rx) = bounded::<u32>(1);
            tx.try_send(1).unwrap();
            assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
            assert_eq!(tx.len(), 1);
            assert_eq!(rx.len(), 1);
            assert_eq!(rx.recv().unwrap(), 1);
            assert!(rx.is_empty());
            drop(rx);
            assert!(matches!(tx.try_send(3), Err(TrySendError::Disconnected(3))));
        }
    }
}
