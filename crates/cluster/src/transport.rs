//! How frames move between a coordinator and a worker.
//!
//! [`Transport`] is deliberately tiny — send a frame, receive a frame,
//! receive with a deadline — so the protocol layer above it is
//! transport-agnostic. [`ChannelTransport`] moves frames over
//! in-process `mpsc` channels (what [`run_sim`](crate::run_sim) uses);
//! [`ChaosTransport`](crate::ChaosTransport) wraps any transport with
//! seeded fault injection.

use std::io;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::time::Duration;

/// A bidirectional, frame-oriented link to one peer.
///
/// Both methods take `&self`: transports sit behind shared references
/// on both sides of a thread boundary. Implementations serialize
/// internally.
pub trait Transport: Send {
    /// Delivers one frame to the peer.
    fn send(&self, frame: Vec<u8>) -> io::Result<()>;
    /// Blocks until the peer's next frame arrives.
    fn recv(&self) -> io::Result<Vec<u8>>;
    /// Waits up to `timeout` for the peer's next frame; `Ok(None)`
    /// means the deadline elapsed quietly.
    fn recv_timeout(&self, timeout: Duration) -> io::Result<Option<Vec<u8>>>;
}

/// Strips a poisoned-lock error: the data behind the lock is a frame
/// queue, still structurally valid after a panicking holder.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// In-process transport: one end of a pair of `mpsc` channels.
pub struct ChannelTransport {
    tx: Sender<Vec<u8>>,
    rx: Mutex<Receiver<Vec<u8>>>,
}

/// Creates two connected [`ChannelTransport`] ends: everything sent on
/// one is received by the other, in order.
pub fn channel_pair() -> (ChannelTransport, ChannelTransport) {
    let (tx_ab, rx_ab) = mpsc::channel();
    let (tx_ba, rx_ba) = mpsc::channel();
    (
        ChannelTransport {
            tx: tx_ab,
            rx: Mutex::new(rx_ba),
        },
        ChannelTransport {
            tx: tx_ba,
            rx: Mutex::new(rx_ab),
        },
    )
}

impl Transport for ChannelTransport {
    fn send(&self, frame: Vec<u8>) -> io::Result<()> {
        self.tx
            .send(frame)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer hung up"))
    }

    fn recv(&self) -> io::Result<Vec<u8>> {
        lock(&self.rx)
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "peer hung up"))
    }

    fn recv_timeout(&self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        match lock(&self.rx).recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer hung up"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn channel_pair_is_bidirectional_and_ordered() {
        let (a, b) = channel_pair();
        a.send(vec![1]).unwrap();
        a.send(vec![2, 2]).unwrap();
        b.send(vec![3]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![1]);
        assert_eq!(b.recv().unwrap(), vec![2, 2]);
        assert_eq!(a.recv().unwrap(), vec![3]);
    }

    #[test]
    fn dropped_peer_surfaces_as_io_error() {
        let (a, b) = channel_pair();
        drop(b);
        assert!(a.send(vec![1]).is_err());
        assert!(a.recv().is_err());
    }

    #[test]
    fn recv_timeout_times_out_quietly_and_still_delivers() {
        let (a, b) = channel_pair();
        // Nothing pending: a short deadline elapses with Ok(None).
        assert_eq!(a.recv_timeout(Duration::from_millis(5)).unwrap(), None);
        // A pending frame is delivered immediately.
        b.send(vec![42]).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(5)).unwrap(),
            Some(vec![42])
        );
        // A dropped peer is an error, not a timeout.
        drop(b);
        assert!(a.recv_timeout(Duration::from_millis(5)).is_err());
    }
}
