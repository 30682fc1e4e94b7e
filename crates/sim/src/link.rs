//! Bandwidth-limited point-to-point links.
//!
//! Models Inmos transputer links and the memory-mapped FIFOs of the
//! Pandora boards (§1.1, §3.1): serial, point-to-point, DMA-driven, with
//! hardware flow control. A message of *n* bytes occupies the link for
//! `n × 8 / rate`; while a transfer is in progress (or its recipient has
//! not yet consumed the previous message) the next sender is held back —
//! this back-pressure is how overload propagates toward the source
//! (Principle 5's failure mode, handled by decoupling buffers).
//!
//! [`long_line`] is the one link that is not inside a box: the wire of a
//! network hop, which serialises like the others but hands what it carried
//! to an unbounded queue, stamped with its arrival instant.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::channel::{buffered, unbounded, Receiver, SendError, Sender};
use crate::executor::{delay, now, waker, Priority, Spawner, TaskWaker};
use crate::time::{SimDuration, SimTime};

/// Items that know their size on the wire.
pub trait WireSize {
    /// Number of bytes this value occupies on a link.
    fn wire_bytes(&self) -> usize;
}

impl WireSize for Vec<u8> {
    fn wire_bytes(&self) -> usize {
        self.len()
    }
}

impl WireSize for &[u8] {
    fn wire_bytes(&self) -> usize {
        self.len()
    }
}

/// Configuration of a [`link`].
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Transfer rate in bits per second (e.g. `20_000_000` for the 20 Mbit/s
    /// audio link of figure 1.2).
    pub bits_per_sec: u64,
    /// Diagnostic name.
    pub name: &'static str,
}

impl LinkConfig {
    /// A link at `bits_per_sec`.
    pub fn new(name: &'static str, bits_per_sec: u64) -> Self {
        LinkConfig { bits_per_sec, name }
    }

    /// Time to clock `bytes` through this link.
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        if self.bits_per_sec == 0 {
            return SimDuration::ZERO;
        }
        SimDuration(((bytes as u128 * 8 * 1_000_000_000) / self.bits_per_sec as u128) as u64)
    }
}

/// The sending end of a link.
pub struct LinkSender<T> {
    tx: Sender<(T, usize)>,
}

impl<T> Clone for LinkSender<T> {
    fn clone(&self) -> Self {
        LinkSender {
            tx: self.tx.clone(),
        }
    }
}

impl<T: WireSize> LinkSender<T> {
    /// Sends a value whose size comes from [`WireSize`].
    ///
    /// Completes when the link engine has accepted the message — i.e. when
    /// the link is free of the previous message (DMA hand-off semantics).
    pub async fn send(&self, value: T) -> Result<(), SendError> {
        let bytes = value.wire_bytes();
        self.send_sized(value, bytes).await
    }
}

impl<T> LinkSender<T> {
    /// Sends a value with an explicit wire size in bytes.
    pub async fn send_sized(&self, value: T, bytes: usize) -> Result<(), SendError> {
        self.tx.send((value, bytes)).await
    }

    /// Number of messages handed to the link engine but not yet delivered.
    pub fn backlog(&self) -> usize {
        self.tx.len()
    }

    /// Returns `true` if the receiving end has been dropped.
    pub fn is_closed(&self) -> bool {
        self.tx.is_closed()
    }
}

/// Creates a bandwidth-limited link inside the simulation.
///
/// Returns the sending end and the delivery channel. A pump task (spawned
/// at high priority, like link DMA engines that run independently of the
/// CPUs) accepts one message at a time, waits the transfer time, then
/// performs a rendezvous delivery: if the receiver is slow the link stays
/// occupied, blocking subsequent senders.
pub fn link<T: 'static>(spawner: &Spawner, config: LinkConfig) -> (LinkSender<T>, Receiver<T>) {
    // Capacity 1: one message may be handed to the DMA engine while a
    // previous transfer is still delivering; the *second* hand-off blocks.
    let (tx, pump_rx) = buffered::<(T, usize)>(1);
    let (out_tx, out_rx) = crate::channel::channel::<T>();
    // Pure serial link (in-box Inmos links and FIFOs): the writer is
    // blocked until the receiver has consumed — exact back-pressure.
    spawner.spawn_prio(
        &format!("link:{}", config.name),
        Priority::High,
        async move {
            while let Ok((value, bytes)) = pump_rx.recv().await {
                delay(config.transfer_time(bytes)).await;
                if out_tx.send(value).await.is_err() {
                    return;
                }
            }
        },
    );
    (LinkSender { tx }, out_rx)
}

struct LinkCtlState {
    up: Cell<bool>,
    rate_permille: Cell<u64>,
    wakers: RefCell<Vec<TaskWaker>>,
    downs: Cell<u64>,
}

/// Runtime control handle for a [`link_controlled`] link or a [`long_line`].
///
/// Fault injection uses it to flap the link (`set_up`) or collapse its
/// effective bandwidth (`set_rate_permille`). While the link is down no new
/// transfer starts and no delivery completes; traffic already handed to the
/// engine queues behind the outage and drains on recovery, exactly the
/// back-pressure path Principle 5's decoupling buffers exist to absorb.
#[derive(Clone)]
pub struct LinkControl {
    state: Rc<LinkCtlState>,
}

impl LinkControl {
    fn new() -> Self {
        LinkControl {
            state: Rc::new(LinkCtlState {
                up: Cell::new(true),
                rate_permille: Cell::new(1000),
                wakers: RefCell::new(Vec::new()),
                downs: Cell::new(0),
            }),
        }
    }

    /// Takes the link down (`false`) or brings it back up (`true`).
    pub fn set_up(&self, up: bool) {
        let was = self.state.up.replace(up);
        if up && !was {
            for w in self.state.wakers.borrow_mut().drain(..) {
                w.wake();
            }
        } else if !up && was {
            self.state.downs.set(self.state.downs.get() + 1);
        }
    }

    /// Whether the link is currently up.
    pub fn is_up(&self) -> bool {
        self.state.up.get()
    }

    /// Scales the effective bandwidth: 1000 is nominal, 250 collapses the
    /// link to a quarter rate. Clamped to at least 1 (never free-running).
    pub fn set_rate_permille(&self, permille: u64) {
        self.state.rate_permille.set(permille.max(1));
    }

    /// Current bandwidth scale factor in permille of nominal.
    pub fn rate_permille(&self) -> u64 {
        self.state.rate_permille.get()
    }

    /// Number of up→down transitions so far.
    pub fn flaps(&self) -> u64 {
        self.state.downs.get()
    }

    fn scaled(&self, d: SimDuration) -> SimDuration {
        let p = self.state.rate_permille.get();
        if p == 1000 {
            d
        } else {
            SimDuration((d.as_nanos() as u128 * 1000 / p as u128) as u64)
        }
    }

    fn wait_up(&self) -> WaitUp {
        WaitUp {
            state: self.state.clone(),
        }
    }
}

struct WaitUp {
    state: Rc<LinkCtlState>,
}

impl Future for WaitUp {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.state.up.get() {
            Poll::Ready(())
        } else {
            self.state.wakers.borrow_mut().push(waker());
            Poll::Pending
        }
    }
}

/// Like [`link`], but returns a [`LinkControl`] so a fault plan can flap
/// the link or collapse its bandwidth mid-run.
///
/// With the control untouched the link behaves identically to [`link`]:
/// the up-check resolves immediately and the nominal rate is unscaled, so
/// schedules (and determinism) are unchanged.
pub fn link_controlled<T: 'static>(
    spawner: &Spawner,
    config: LinkConfig,
) -> (LinkSender<T>, Receiver<T>, LinkControl) {
    let ctrl = LinkControl::new();
    let (tx, pump_rx) = buffered::<(T, usize)>(1);
    let (out_tx, out_rx) = crate::channel::channel::<T>();
    let c = ctrl.clone();
    spawner.spawn_prio(
        &format!("link:{}", config.name),
        Priority::High,
        async move {
            while let Ok((value, bytes)) = pump_rx.recv().await {
                c.wait_up().await;
                delay(c.scaled(config.transfer_time(bytes))).await;
                c.wait_up().await;
                if out_tx.send(value).await.is_err() {
                    return;
                }
            }
        },
    );
    (LinkSender { tx }, out_rx, ctrl)
}

/// A long line: the wire of one network hop, as a serialiser only.
///
/// The `link:{name}` task clocks one message at a time through the wire
/// exactly as [`link_controlled`] does (up-check, scaled transfer,
/// up-check) and then, instead of delivering it, pushes it onto an
/// **unbounded** queue stamped with the instant its last bit reaches the
/// far end (`now + latency`). Whoever reads the queue decides when to
/// release the message; the wire never waits for them, so neither latency
/// nor a slow reader costs throughput, and only a downed link (or an idle
/// sender) idles it. Stamps are non-decreasing.
pub fn long_line<T: 'static>(
    spawner: &Spawner,
    config: LinkConfig,
    latency: SimDuration,
) -> (LinkSender<T>, Receiver<(SimTime, T)>, LinkControl) {
    let ctrl = LinkControl::new();
    let (tx, pump_rx) = buffered::<(T, usize)>(1);
    let (out_tx, out_rx) = unbounded::<(SimTime, T)>();
    let c = ctrl.clone();
    spawner.spawn_prio(
        &format!("link:{}", config.name),
        Priority::High,
        async move {
            while let Ok((value, bytes)) = pump_rx.recv().await {
                c.wait_up().await;
                delay(c.scaled(config.transfer_time(bytes))).await;
                c.wait_up().await;
                if out_tx.send((now() + latency, value)).await.is_err() {
                    return;
                }
            }
        },
    );
    (LinkSender { tx }, out_rx, ctrl)
}

/// Helper: the time at which a periodic process pacing at `period` with a
/// relative clock drift `drift` (e.g. `1e-5`) should fire its `n`-th tick.
///
/// A positive drift makes the local clock run fast, i.e. the source emits
/// slightly more often than nominal in global time.
pub fn drifted_tick(start: SimTime, period: SimDuration, drift: f64, n: u64) -> SimTime {
    let nominal = period.as_nanos() as f64 * n as f64;
    start + SimDuration((nominal / (1.0 + drift)).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Simulation;
    use crate::time::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn transfer_time_math() {
        let cfg = LinkConfig::new("l", 20_000_000);
        // 1 byte at 20 Mbit/s = 400ns.
        assert_eq!(cfg.transfer_time(1), SimDuration::from_nanos(400));
        // A 68-byte audio segment (36B header + 32B data) = 27.2us.
        assert_eq!(cfg.transfer_time(68), SimDuration::from_nanos(27_200));
    }

    #[test]
    fn zero_rate_is_instant() {
        let cfg = LinkConfig::new("l", 0);
        assert_eq!(cfg.transfer_time(100), SimDuration::ZERO);
    }

    #[test]
    fn message_arrives_after_transfer_time() {
        let mut sim = Simulation::new();
        let (tx, rx) = link::<Vec<u8>>(&sim.spawner(), LinkConfig::new("l", 8_000_000));
        sim.spawn("sender", async move {
            tx.send(vec![0u8; 1000]).await.unwrap(); // 1ms at 8Mbit/s
        });
        let at = Rc::new(RefCell::new(SimTime::ZERO));
        let a = at.clone();
        sim.spawn("receiver", async move {
            let v = rx.recv().await.unwrap();
            assert_eq!(v.len(), 1000);
            *a.borrow_mut() = crate::now();
        });
        sim.run_until_idle();
        assert_eq!(*at.borrow(), SimTime::from_millis(1));
    }

    #[test]
    fn latency_added() {
        let mut sim = Simulation::new();
        let (tx, rx, _ctrl) = long_line::<Vec<u8>>(
            &sim.spawner(),
            LinkConfig::new("l", 8_000_000),
            SimDuration::from_millis(3),
        );
        sim.spawn("sender", async move {
            tx.send(vec![0u8; 1000]).await.unwrap();
        });
        sim.run_until_idle();
        // Stamp = transfer (1 ms) + latency; queued when the transfer ends.
        assert_eq!(sim.now(), SimTime::from_millis(1));
        let (stamp, v) = rx.try_recv().unwrap();
        assert_eq!(stamp, SimTime::from_millis(4));
        assert_eq!(v.len(), 1000);
    }

    #[test]
    fn long_line_stamps_are_transfer_apart_whatever_the_latency() {
        // Bandwidth x delay is not capped: 1,000 messages of 1 us each
        // are all in flight inside 5 ms of latency.
        for latency_us in [0, 300, 5_000] {
            let mut sim = Simulation::new();
            let (tx, rx, _ctrl) = long_line::<Vec<u8>>(
                &sim.spawner(),
                LinkConfig::new("l", 8_000_000),
                SimDuration::from_micros(latency_us),
            );
            sim.spawn("sender", async move {
                for _ in 0..1_000 {
                    tx.send(vec![0u8; 1]).await.unwrap(); // 1 us at 8 Mbit/s
                }
            });
            sim.run_until_idle();
            for k in 1..=1_000 {
                let (stamp, _) = rx.try_recv().unwrap();
                assert_eq!(stamp, SimTime::from_micros(k + latency_us));
            }
        }
    }

    #[test]
    fn long_line_stalls_for_a_downed_link_not_for_an_idle_reader() {
        let mut sim = Simulation::new();
        let (tx, rx, ctrl) = long_line::<Vec<u8>>(
            &sim.spawner(),
            LinkConfig::new("l", 8_000_000),
            SimDuration::from_millis(2),
        );
        let sent = Rc::new(RefCell::new(Vec::new()));
        let s = sent.clone();
        sim.spawn("sender", async move {
            for _ in 0..6 {
                tx.send(vec![0u8; 1000]).await.unwrap(); // 1 ms each
                s.borrow_mut().push(crate::now().as_millis());
            }
        });
        // Nobody reads `rx`: hand-offs still complete at the wire's pace.
        sim.run_until(SimTime::from_micros(3_500));
        assert_eq!(*sent.borrow(), vec![0, 0, 1, 2, 3]);
        ctrl.set_up(false); // mid-transfer of the fourth message
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sent.borrow().len(), 5, "a downed link takes nothing");
        assert_eq!(rx.len(), 3);
        ctrl.set_up(true);
        sim.run_until_idle();
        // The fourth had clocked its bytes and lands on recovery; the
        // rest drain at the wire rate, each stamped 2 ms after its end.
        assert_eq!(*sent.borrow(), vec![0, 0, 1, 2, 3, 10]);
        let stamps: Vec<u64> = std::iter::from_fn(|| rx.try_recv())
            .map(|(stamp, _)| stamp.as_millis())
            .collect();
        assert_eq!(stamps, vec![3, 4, 5, 12, 13, 14]);
    }

    #[test]
    fn back_to_back_messages_serialize() {
        let mut sim = Simulation::new();
        let (tx, rx) = link::<Vec<u8>>(&sim.spawner(), LinkConfig::new("l", 8_000_000));
        sim.spawn("sender", async move {
            for _ in 0..3 {
                tx.send(vec![0u8; 1000]).await.unwrap();
            }
        });
        let times = Rc::new(RefCell::new(Vec::new()));
        let t = times.clone();
        sim.spawn("receiver", async move {
            for _ in 0..3 {
                rx.recv().await.unwrap();
                t.borrow_mut().push(crate::now().as_millis());
            }
        });
        sim.run_until_idle();
        assert_eq!(*times.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn slow_receiver_blocks_link_and_sender() {
        let mut sim = Simulation::new();
        let (tx, rx) = link::<Vec<u8>>(&sim.spawner(), LinkConfig::new("l", 8_000_000));
        let sent = Rc::new(RefCell::new(Vec::new()));
        let s = sent.clone();
        sim.spawn("sender", async move {
            for i in 0..3 {
                tx.send(vec![0u8; 1000]).await.unwrap();
                s.borrow_mut().push((i, crate::now().as_millis()));
            }
        });
        sim.spawn("receiver", async move {
            loop {
                crate::delay(SimDuration::from_millis(10)).await;
                if rx.recv().await.is_err() {
                    break;
                }
            }
        });
        sim.run_until_idle();
        let sent = sent.borrow();
        // First two hand-offs are quick (one in DMA buffer, one in flight);
        // the third must wait for the receiver's 10ms cadence.
        assert_eq!(sent[0].1, 0);
        assert!(sent[2].1 >= 10, "third send at {}ms", sent[2].1);
    }

    #[test]
    fn controlled_link_matches_plain_link_when_untouched() {
        let mut sim = Simulation::new();
        let (tx, rx, ctrl) =
            link_controlled::<Vec<u8>>(&sim.spawner(), LinkConfig::new("l", 8_000_000));
        assert!(ctrl.is_up());
        sim.spawn("sender", async move {
            tx.send(vec![0u8; 1000]).await.unwrap(); // 1ms at 8Mbit/s
        });
        let at = Rc::new(RefCell::new(SimTime::ZERO));
        let a = at.clone();
        sim.spawn("receiver", async move {
            rx.recv().await.unwrap();
            *a.borrow_mut() = crate::now();
        });
        sim.run_until_idle();
        assert_eq!(*at.borrow(), SimTime::from_millis(1));
        assert_eq!(ctrl.flaps(), 0);
    }

    #[test]
    fn link_flap_holds_traffic_until_recovery() {
        let mut sim = Simulation::new();
        let (tx, rx, ctrl) =
            link_controlled::<Vec<u8>>(&sim.spawner(), LinkConfig::new("l", 8_000_000));
        sim.spawn("sender", async move {
            for _ in 0..3 {
                let _ = tx.send(vec![0u8; 1000]).await; // 1ms each
            }
        });
        let times = Rc::new(RefCell::new(Vec::new()));
        let t = times.clone();
        sim.spawn("receiver", async move {
            while rx.recv().await.is_ok() {
                t.borrow_mut().push(crate::now().as_millis());
            }
        });
        sim.run_until(SimTime::from_micros(500));
        ctrl.set_up(false); // down mid-first-transfer
        sim.run_until(SimTime::from_millis(10));
        assert!(times.borrow().is_empty(), "no delivery while down");
        ctrl.set_up(true);
        sim.run_until(SimTime::from_millis(20));
        // First transfer had already clocked its bytes; it delivers on
        // recovery at 10ms, then the queue drains at the 1ms wire rate.
        assert_eq!(*times.borrow(), vec![10, 11, 12]);
        assert_eq!(ctrl.flaps(), 1);
    }

    #[test]
    fn bandwidth_collapse_stretches_transfers() {
        let mut sim = Simulation::new();
        let (tx, rx, ctrl) =
            link_controlled::<Vec<u8>>(&sim.spawner(), LinkConfig::new("l", 8_000_000));
        ctrl.set_rate_permille(250); // quarter rate: 1ms messages take 4ms
        sim.spawn("sender", async move {
            for _ in 0..2 {
                let _ = tx.send(vec![0u8; 1000]).await;
            }
        });
        let times = Rc::new(RefCell::new(Vec::new()));
        let t = times.clone();
        sim.spawn("receiver", async move {
            while rx.recv().await.is_ok() {
                t.borrow_mut().push(crate::now().as_millis());
            }
        });
        sim.run_until_idle();
        assert_eq!(*times.borrow(), vec![4, 8]);
    }

    #[test]
    fn drifted_tick_schedule() {
        let p = SimDuration::from_millis(2);
        // Zero drift: exact multiples.
        assert_eq!(
            drifted_tick(SimTime::ZERO, p, 0.0, 5),
            SimTime::from_millis(10)
        );
        // Fast source (positive drift): ticks come slightly early.
        let t = drifted_tick(SimTime::ZERO, p, 1e-5, 1_000_000);
        assert!(t < SimTime::from_secs(2_000));
        let slow = drifted_tick(SimTime::ZERO, p, -1e-5, 1_000_000);
        assert!(slow > SimTime::from_secs(2_000));
    }
}
