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
//! A wire drains the queue in front of it — the process that has a message
//! outputs to the link and is held back while the link is busy; no process
//! stands between them — and holds each message for its
//! [`LinkControl::hold`] while the link is up. A caller that clocks its own
//! queue drives the same three questions ([`LinkControl::is_up`],
//! [`LinkControl::wake_when_up`], [`LinkControl::hold`]) itself, with no
//! task per link. [`link_over`] takes any queue as that source,
//! with a function giving an item's size; [`link`] is it over a
//! [`link_queue`] of its own, for items that are [`WireSize`].
//!
//! [`long_line`] is the one link that is not inside a box: the wire of a
//! network hop, which serialises like the others but hands what it carried
//! to an unbounded queue, stamped with its arrival instant.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::channel::{buffered, channel, unbounded, Receiver, SendError, Sender};
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

    /// Time to clock `bytes` through this link, divided in `u64` whenever
    /// `bytes × 8·10⁹` fits: the same quotient, without a 128-bit division.
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        if self.bits_per_sec == 0 {
            return SimDuration::ZERO;
        }
        let wide = || ((bytes as u128 * 8_000_000_000) / self.bits_per_sec as u128) as u64;
        let fits = (bytes as u64).checked_mul(8_000_000_000);
        SimDuration(fits.map_or_else(wide, |bit_ns| bit_ns / self.bits_per_sec))
    }
}

/// The sending end of a [`link_queue`]: the one message of hand-off room
/// in front of a wire.
pub struct LinkSender<T> {
    tx: Sender<T>,
}

impl<T> Clone for LinkSender<T> {
    fn clone(&self) -> Self {
        LinkSender {
            tx: self.tx.clone(),
        }
    }
}

impl<T> LinkSender<T> {
    /// Sends a value.
    ///
    /// Completes when the link engine has accepted the message — i.e. when
    /// the link is free of the previous message (DMA hand-off semantics).
    pub async fn send(&self, value: T) -> Result<(), SendError> {
        self.tx.send(value).await
    }
}

/// The queue a wire gets when its input sits in no queue already.
///
/// Capacity 1: one message may be handed to the DMA engine while a
/// previous transfer is still delivering; the *second* hand-off blocks.
pub fn link_queue<T>() -> (LinkSender<T>, Receiver<T>) {
    let (tx, source) = buffered(1);
    (LinkSender { tx }, source)
}

struct LinkCtlState {
    up: Cell<bool>,
    rate_permille: Cell<u64>,
    wakers: RefCell<Vec<TaskWaker>>,
    downs: Cell<u64>,
}

/// Runtime control handle of a link.
///
/// Fault injection uses it to flap the link (`set_up`) or collapse its
/// effective bandwidth (`set_rate_permille`). While the link is down no new
/// transfer starts and no delivery completes; traffic already handed to the
/// engine queues behind the outage and drains on recovery, exactly the
/// back-pressure path Principle 5's decoupling buffers exist to absorb.
/// Left untouched it costs nothing: the up-check resolves immediately and
/// the nominal rate is unscaled, so schedules (and determinism) are those
/// of a link without one.
#[derive(Clone)]
pub struct LinkControl {
    state: Rc<LinkCtlState>,
}

impl Default for LinkControl {
    fn default() -> Self {
        LinkControl {
            state: Rc::new(LinkCtlState {
                up: Cell::new(true),
                rate_permille: Cell::new(1000),
                wakers: RefCell::new(Vec::new()),
                downs: Cell::new(0),
            }),
        }
    }
}

impl LinkControl {
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

    /// Whether the link is up. A message starts and ends its transfer only
    /// while it is: a wire checks before it holds a message and again
    /// when the hold is over.
    pub fn is_up(&self) -> bool {
        self.state.up.get()
    }

    /// Wakes the task being polled when the link next comes up.
    ///
    /// # Panics
    ///
    /// Panics outside a task poll, like [`waker`].
    pub fn wake_when_up(&self) {
        self.state.wakers.borrow_mut().push(waker());
    }

    /// How long the link holds a message of `bytes`: its transfer time at
    /// the rate scale in force now. A wire reads it once the link is up,
    /// as the message starts.
    pub fn hold(&self, config: &LinkConfig, bytes: usize) -> SimDuration {
        let d = config.transfer_time(bytes);
        let p = self.state.rate_permille.get();
        if p == 1000 {
            d
        } else {
            SimDuration((d.as_nanos() as u128 * 1000 / p as u128) as u64)
        }
    }

    fn wait_up(&self) -> WaitUp<'_> {
        WaitUp { link: self }
    }
}

struct WaitUp<'a> {
    link: &'a LinkControl,
}

impl Future for WaitUp<'_> {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.link.is_up() {
            Poll::Ready(())
        } else {
            self.link.wake_when_up();
            Poll::Pending
        }
    }
}

/// The link engine: the `link:{name}` task every channel-fed wire is. High
/// priority, like link DMA engines that run independently of the CPUs, it
/// takes one message at a time from `source`, waits for the link to be up,
/// holds the message for its [`LinkControl::hold`], waits for the link to
/// be up again, and sends what `arrive` makes of it to `far`, whose
/// capacity decides whether the wire then waits for its reader.
fn spawn_wire<T: 'static, U: 'static>(
    spawner: &Spawner,
    config: LinkConfig,
    source: Receiver<T>,
    size: impl Fn(&T) -> usize + 'static,
    far: Sender<U>,
    arrive: impl Fn(T) -> U + 'static,
) -> LinkControl {
    let ctrl = LinkControl::default();
    let c = ctrl.clone();
    spawner.spawn_prio(
        &format!("link:{}", config.name),
        Priority::High,
        async move {
            while let Ok(value) = source.recv().await {
                c.wait_up().await;
                delay(c.hold(&config, size(&value))).await;
                c.wait_up().await;
                if far.send(arrive(value)).await.is_err() {
                    return;
                }
            }
        },
    );
    ctrl
}

/// A bandwidth-limited serial link (in-box Inmos links and FIFOs) draining
/// `source`, each item occupying it for the time its `size` in bytes takes.
///
/// Delivery is a rendezvous: if the receiver is slow the link stays
/// occupied, and `source` fills behind it — exact back-pressure. Any
/// queue can be the source: whoever fills it is held back by its capacity
/// and by nothing else.
pub fn link_over<T: 'static>(
    spawner: &Spawner,
    config: LinkConfig,
    source: Receiver<T>,
    size: impl Fn(&T) -> usize + 'static,
) -> (Receiver<T>, LinkControl) {
    let (far, out_rx) = channel::<T>();
    let ctrl = spawn_wire(spawner, config, source, size, far, |value| value);
    (out_rx, ctrl)
}

/// [`link_over`] a fresh [`link_queue`], for items that know their size,
/// on a link nothing will ever flap.
pub fn link<T: WireSize + 'static>(
    spawner: &Spawner,
    config: LinkConfig,
) -> (LinkSender<T>, Receiver<T>) {
    let (tx, source) = link_queue();
    let (out_rx, _) = link_over(spawner, config, source, T::wire_bytes);
    (tx, out_rx)
}

/// A long line: the wire of one network hop, as a serialiser only.
///
/// It clocks one message at a time out of `source` exactly as
/// [`link_over`] does and then, instead of delivering it, pushes it onto
/// an **unbounded** queue stamped with the instant its last bit reaches
/// the far end (`now + latency`). Whoever reads the queue decides when to
/// release the message; the wire never waits for them, so neither latency
/// nor a slow reader costs throughput, and only a downed link (or an empty
/// source) idles it. Stamps are non-decreasing.
pub fn long_line<T: WireSize + 'static>(
    spawner: &Spawner,
    config: LinkConfig,
    latency: SimDuration,
    source: Receiver<T>,
) -> (Receiver<(SimTime, T)>, LinkControl) {
    let (far, out_rx) = unbounded::<(SimTime, T)>();
    let stamp = move |value| (now() + latency, value);
    let ctrl = spawn_wire(spawner, config, source, T::wire_bytes, far, stamp);
    (out_rx, ctrl)
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

    /// A wire over a hand-off slot of its own, with its control handle.
    fn controlled(
        sim: &Simulation,
        config: LinkConfig,
    ) -> (LinkSender<Vec<u8>>, Receiver<Vec<u8>>, LinkControl) {
        let (tx, source) = link_queue();
        let (rx, ctrl) = link_over(&sim.spawner(), config, source, Vec::len);
        (tx, rx, ctrl)
    }

    #[test]
    fn transfer_time_math() {
        let cfg = LinkConfig::new("l", 20_000_000);
        // 1 byte at 20 Mbit/s = 400ns.
        assert_eq!(cfg.transfer_time(1), SimDuration::from_nanos(400));
        // A 68-byte audio segment (36B header + 32B data) = 27.2us.
        assert_eq!(cfg.transfer_time(68), SimDuration::from_nanos(27_200));
    }

    /// The `u64` form is the `u128` formula's quotient wherever the
    /// numerator fits, and falls back to it past that: byte counts around
    /// the fit boundary, small and anywhere, over rates of 1, `u64::MAX`
    /// and anywhere between.
    #[test]
    fn transfer_time_is_the_wide_formula() {
        use pandora_prop::{check, Rng, Tape};
        let fits = (u64::MAX / 8_000_000_000) as usize;
        let case = |t: &mut Tape| {
            let bytes = match t.gen_range(0..3u32) {
                0 => fits - 2 + t.gen_range(0..5usize),
                1 => t.gen_range(0..100_000usize),
                _ => t.gen_range(0..=usize::MAX),
            };
            let bps = match t.gen_range(0..4u32) {
                0 => 1,
                1 => u64::MAX,
                2 => t.gen_range(1..100_000_000_000u64),
                _ => t.gen_range(1..=u64::MAX),
            };
            (bytes, bps)
        };
        check("transfer_time_wide", 1, 10_000, case, |&(bytes, bps)| {
            let wide = (bytes as u128 * 8 * 1_000_000_000) / bps as u128;
            let got = LinkConfig::new("l", bps).transfer_time(bytes);
            assert_eq!(
                got,
                SimDuration(wide as u64),
                "{bytes} bytes at {bps} bit/s"
            );
        });
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
        let (tx, source) = link_queue::<Vec<u8>>();
        let (rx, _ctrl) = long_line(
            &sim.spawner(),
            LinkConfig::new("l", 8_000_000),
            SimDuration::from_millis(3),
            source,
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
            let (tx, source) = link_queue::<Vec<u8>>();
            let (rx, _ctrl) = long_line(
                &sim.spawner(),
                LinkConfig::new("l", 8_000_000),
                SimDuration::from_micros(latency_us),
                source,
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
        let (tx, source) = link_queue::<Vec<u8>>();
        let (rx, ctrl) = long_line(
            &sim.spawner(),
            LinkConfig::new("l", 8_000_000),
            SimDuration::from_millis(2),
            source,
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
        let (tx, rx, ctrl) = controlled(&sim, LinkConfig::new("l", 8_000_000));
        assert!(ctrl.state.up.get());
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
        let (tx, rx, ctrl) = controlled(&sim, LinkConfig::new("l", 8_000_000));
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
        let (tx, rx, ctrl) = controlled(&sim, LinkConfig::new("l", 8_000_000));
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
    fn a_callers_queue_and_a_link_sender_deliver_at_the_same_instants() {
        // The same six messages through a wire behind a `LinkSender` and
        // through one draining a queue the caller filled itself, with the
        // link taken down and its rate quartered mid-run.
        let run = |own_queue: bool| {
            let mut sim = Simulation::new();
            let cfg = LinkConfig::new("l", 8_000_000);
            let (rx, ctrl) = if own_queue {
                let (tx, rx, ctrl) = controlled(&sim, cfg);
                sim.spawn("sender", async move {
                    for i in 0..6u8 {
                        tx.send(vec![i; 1000]).await.unwrap(); // 1 ms each
                    }
                });
                (rx, ctrl)
            } else {
                let (tx, source) = unbounded::<Vec<u8>>();
                for i in 0..6u8 {
                    tx.try_send(vec![i; 1000]).unwrap();
                }
                link_over(&sim.spawner(), cfg, source, Vec::len)
            };
            let got = Rc::new(RefCell::new(Vec::new()));
            let g = got.clone();
            sim.spawn("receiver", async move {
                while let Ok(v) = rx.recv().await {
                    g.borrow_mut().push((v[0], crate::now().as_micros()));
                }
            });
            sim.run_until(SimTime::from_micros(1_500));
            ctrl.set_up(false); // mid-transfer of the second message
            sim.run_until(SimTime::from_millis(5));
            ctrl.set_up(true);
            ctrl.set_rate_permille(250);
            sim.run_until(SimTime::from_millis(20));
            got.take()
        };
        let behind_a_sender = run(true);
        assert_eq!(
            behind_a_sender,
            vec![
                (0, 1_000),
                (1, 5_000), // had clocked its bytes: lands on recovery
                (2, 9_000), // 4 ms each at a quarter rate
                (3, 13_000),
                (4, 17_000),
            ]
        );
        assert_eq!(run(false), behind_a_sender);
    }

    #[test]
    fn a_task_asking_the_synchronous_face_delivers_at_the_wires_instants() {
        // The script above, the link taken down mid-transfer of the second
        // message and brought back at a quarter rate, played against a wire
        // and against a task that asks the link's three questions itself.
        let cfg = LinkConfig::new("l", 8_000_000);
        let script = |sim: &mut Simulation, ctrl: &LinkControl| {
            sim.run_until(SimTime::from_micros(1_500));
            ctrl.set_up(false);
            sim.run_until(SimTime::from_millis(5));
            ctrl.set_up(true);
            ctrl.set_rate_permille(250);
            sim.run_until(SimTime::from_millis(20));
        };

        let mut sim = Simulation::new();
        let (tx, source) = unbounded::<Vec<u8>>();
        for i in 0..6u8 {
            tx.try_send(vec![i; 1000]).unwrap();
        }
        let (rx, ctrl) = link_over(&sim.spawner(), cfg, source, Vec::len);
        let wire = Rc::new(RefCell::new(Vec::new()));
        let w = wire.clone();
        sim.spawn("receiver", async move {
            while let Ok(v) = rx.recv().await {
                w.borrow_mut().push((v[0], crate::now().as_micros()));
            }
        });
        script(&mut sim, &ctrl);

        let mut sim = Simulation::new();
        let ctrl = LinkControl::default();
        let c = ctrl.clone();
        let own = Rc::new(RefCell::new(Vec::new()));
        let o = own.clone();
        sim.spawn("own-wire", async move {
            let up = || {
                std::future::poll_fn(|_| {
                    if c.is_up() {
                        return Poll::Ready(());
                    }
                    c.wake_when_up();
                    Poll::Pending
                })
            };
            for i in 0..6u8 {
                up().await;
                delay(c.hold(&cfg, 1000)).await;
                up().await;
                o.borrow_mut().push((i, crate::now().as_micros()));
            }
        });
        script(&mut sim, &ctrl);

        let want = [(0, 1_000), (1, 5_000), (2, 9_000), (3, 13_000), (4, 17_000)];
        assert_eq!(*wire.borrow(), want);
        assert_eq!(*own.borrow(), want);
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
