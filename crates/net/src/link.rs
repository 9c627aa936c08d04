//! Simulated point-to-point links.
//!
//! A link is a unidirectional, framed byte channel between two tree nodes
//! (paper Fig. 1: "communication happens only along the edges of the tree").
//! Frames carry opaque payloads produced by [`Wire`](crate::wire::Wire)
//! encoders. Each send records traffic in the receiver-side [`NetMetrics`].
//! A link adds no delay of its own: a straggler frame is a fault
//! ([`FrameFault::Delay`]).
//!
//! ## Fault injection
//!
//! A sender can be armed with a [`FrameFaultHook`]: a pure decision
//! function consulted once per outgoing frame with the frame's sequence
//! number and length. The hook chooses a [`FrameFault`] — deliver, drop,
//! duplicate, corrupt one bit, or delay — and the link applies it before
//! (or instead of) the real send. Faults are invisible to the sending
//! code: `send` still reports success for a dropped frame, exactly like a
//! lossy network. Injected faults are counted in the link's [`NetMetrics`]
//! so tests can assert a schedule actually fired.

use crate::error::{Error, Result};
use crate::metrics::NetMetrics;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A link's configuration: empty, since links add no delay of their own
/// (a straggler frame is a [`FrameFault::Delay`]).
///
/// Public only for the frozen `benchmark/`; ROADMAP 1(b)/9(a) removes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkConfig;

impl LinkConfig {
    /// The one configuration: frames arrive as soon as they are sent.
    pub fn instant() -> Self {
        LinkConfig
    }
}

/// What a fault hook decides for one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Send the frame normally.
    Deliver,
    /// Silently discard the frame; the sender still observes success.
    Drop,
    /// Send the frame twice back to back.
    Duplicate,
    /// Flip one bit of the payload before sending. The bit index is
    /// `seed % (len * 8)`, so the corruption site is a pure function of
    /// the hook's decision and the frame length (replayable).
    Corrupt {
        /// Seed selecting which bit to flip.
        seed: u64,
    },
    /// Stall the sending thread before delivering (a straggler frame).
    Delay(Duration),
}

/// Per-frame fault decision function: `(frame sequence number, payload
/// length) → fault`. Must be pure in its inputs so a failing schedule
/// replays identically.
pub(crate) type FrameFaultHook = Arc<dyn Fn(u64, usize) -> FrameFault + Send + Sync>;

/// Sending half of a link.
#[derive(Clone)]
pub struct LinkSender {
    tx: Sender<Bytes>,
    metrics: NetMetrics,
    faults: Option<FrameFaultHook>,
    /// Outgoing frame sequence number fed to the fault hook. Shared by
    /// clones made *after* arming, so one logical endpoint numbers its
    /// frames consecutively.
    frame_seq: Arc<AtomicU64>,
}

impl std::fmt::Debug for LinkSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LinkSender(faults={}, frames={})",
            self.faults.is_some(),
            // lint: allow(relaxed, Debug-format snapshot of a diagnostics counter)
            self.frame_seq.load(Ordering::Relaxed)
        )
    }
}

/// Receiving half of a link.
#[derive(Debug)]
pub struct LinkReceiver {
    rx: Receiver<Bytes>,
    metrics: NetMetrics,
}

/// Create a connected link pair. Traffic is recorded in the returned
/// receiver's metrics (readable via [`LinkReceiver::metrics`]).
pub fn link_pair() -> (LinkSender, LinkReceiver) {
    let (tx, rx) = unbounded();
    let metrics = NetMetrics::new();
    (
        LinkSender {
            tx,
            metrics: metrics.clone(),
            faults: None,
            frame_seq: Arc::new(AtomicU64::new(0)),
        },
        LinkReceiver { rx, metrics },
    )
}

impl LinkSender {
    /// Arm this sender with a fault hook and a fresh frame counter.
    /// Clones made from the armed sender share the counter.
    #[must_use]
    pub fn with_faults(mut self, hook: FrameFaultHook) -> Self {
        self.faults = Some(hook);
        self.frame_seq = Arc::new(AtomicU64::new(0));
        self
    }

    /// Send one frame, applying any armed fault decision first.
    pub fn send(&self, payload: Bytes) -> Result<()> {
        let fault = match &self.faults {
            Some(hook) => hook(self.frame_seq.fetch_add(1, Ordering::SeqCst), payload.len()),
            None => FrameFault::Deliver,
        };
        match fault {
            FrameFault::Deliver => self.send_frame(payload),
            // The frame vanishes on the wire; the sender cannot tell.
            FrameFault::Drop => Ok(()),
            FrameFault::Duplicate => {
                self.send_frame(payload.clone())?;
                self.send_frame(payload)
            }
            FrameFault::Corrupt { seed } => {
                let mut bytes = payload.to_vec();
                if !bytes.is_empty() {
                    let bit = (seed % (bytes.len() as u64 * 8)) as usize;
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                self.send_frame(Bytes::from(bytes))
            }
            FrameFault::Delay(d) => {
                std::thread::sleep(d);
                self.send_frame(payload)
            }
        }
    }

    fn send_frame(&self, payload: Bytes) -> Result<()> {
        self.metrics.record(payload.len() as u64);
        self.tx.send(payload).map_err(|_| Error::Disconnected)
    }
}

impl LinkReceiver {
    /// Block until a frame arrives or the sender disconnects.
    pub fn recv(&self) -> Result<Bytes> {
        self.rx.recv().map_err(|_| Error::Disconnected)
    }

    /// Block with a timeout; `Ok(None)` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Bytes>> {
        match self.rx.recv_timeout(timeout) {
            Ok(b) => Ok(Some(b)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(Error::Disconnected),
        }
    }

    /// Traffic counters for this endpoint.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn frames_arrive_in_order() {
        let (tx, rx) = link_pair();
        for i in 0u8..10 {
            tx.send(Bytes::from(vec![i])).unwrap();
        }
        for i in 0u8..10 {
            assert_eq!(rx.recv().unwrap(), Bytes::from(vec![i]));
        }
    }

    #[test]
    fn metrics_count_traffic() {
        let (tx, rx) = link_pair();
        tx.send(Bytes::from(vec![0; 100])).unwrap();
        tx.send(Bytes::from(vec![0; 20])).unwrap();
        assert_eq!(rx.metrics().messages(), 2);
        assert_eq!(rx.metrics().bytes(), 128);
    }

    #[test]
    fn disconnection_detected() {
        let (tx, rx) = link_pair();
        drop(tx);
        assert_eq!(rx.recv(), Err(Error::Disconnected));
        let (tx, rx) = link_pair();
        drop(rx);
        assert_eq!(tx.send(Bytes::new()), Err(Error::Disconnected));
    }

    #[test]
    fn recv_timeout_waits_out_an_empty_link() {
        let (tx, rx) = link_pair();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)).unwrap(), None);
        tx.send(Bytes::from_static(b"x")).unwrap();
        let got = rx.recv_timeout(Duration::from_millis(5)).unwrap();
        assert_eq!(got, Some(Bytes::from_static(b"x")));
    }

    #[test]
    fn fault_drop_loses_frame_silently() {
        let (tx, rx) = link_pair();
        let tx = tx.with_faults(Arc::new(|seq, _len| {
            if seq == 0 {
                FrameFault::Drop
            } else {
                FrameFault::Deliver
            }
        }));
        tx.send(Bytes::from_static(b"lost")).unwrap();
        tx.send(Bytes::from_static(b"kept")).unwrap();
        assert_eq!(rx.recv().unwrap(), Bytes::from_static(b"kept"));
        assert_eq!(rx.metrics().messages(), 1, "dropped frame never recorded");
    }

    #[test]
    fn fault_duplicate_delivers_twice() {
        let (tx, rx) = link_pair();
        let tx = tx.with_faults(Arc::new(|_, _| FrameFault::Duplicate));
        tx.send(Bytes::from_static(b"x")).unwrap();
        assert_eq!(rx.recv().unwrap(), Bytes::from_static(b"x"));
        assert_eq!(rx.recv().unwrap(), Bytes::from_static(b"x"));
    }

    #[test]
    fn fault_corrupt_flips_exactly_one_bit() {
        let (tx, rx) = link_pair();
        let tx = tx.with_faults(Arc::new(|_, _| FrameFault::Corrupt { seed: 11 }));
        tx.send(Bytes::from_static(&[0u8; 4])).unwrap();
        let got = rx.recv().unwrap();
        let ones: u32 = got.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one bit flipped: {got:?}");
        // Bit 11 = byte 1, bit 3.
        assert_eq!(got[1], 1 << 3);
    }

    #[test]
    fn fault_corrupt_empty_frame_is_safe() {
        let (tx, rx) = link_pair();
        let tx = tx.with_faults(Arc::new(|_, _| FrameFault::Corrupt { seed: 7 }));
        tx.send(Bytes::new()).unwrap();
        assert_eq!(rx.recv().unwrap(), Bytes::new());
    }

    #[test]
    fn fault_delay_stalls_delivery() {
        let (tx, rx) = link_pair();
        let tx = tx.with_faults(Arc::new(|_, _| {
            FrameFault::Delay(Duration::from_millis(20))
        }));
        let start = Instant::now();
        tx.send(Bytes::from_static(b"slow")).unwrap();
        rx.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn fault_hook_sees_consecutive_sequence_numbers() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let (tx, _rx) = link_pair();
        let tx = tx.with_faults(Arc::new(move |seq, len| {
            seen2.lock().unwrap().push((seq, len));
            FrameFault::Deliver
        }));
        for i in 0..4usize {
            tx.send(Bytes::from(vec![0u8; i])).unwrap();
        }
        assert_eq!(*seen.lock().unwrap(), vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn cross_thread_usage() {
        let (tx, rx) = link_pair();
        let h = std::thread::spawn(move || {
            for i in 0u64..100 {
                tx.send(Bytes::copy_from_slice(&i.to_le_bytes())).unwrap();
            }
        });
        let mut sum = 0u64;
        for _ in 0..100 {
            let b = rx.recv().unwrap();
            sum += u64::from_le_bytes(b.as_ref().try_into().unwrap());
        }
        h.join().unwrap();
        assert_eq!(sum, 4950);
    }
}
