//! Periodic tick sources — the transputer event pin.
//!
//! §3.5: "Every 2ms, the Transputer event pin is signalled, and the code
//! notes that another 16 bytes (a block) are in the fifo." A [`ticker`]
//! models this: a hardware-driven periodic signal feeding a bounded FIFO.
//! If the consumer cannot keep up, ticks overflow and are counted — the
//! hardware analogue of codec FIFO overrun, i.e. data lost at the source.

use std::cell::Cell;
use std::rc::Rc;

use crate::channel::{buffered, Receiver, TrySendError};
use crate::executor::{delay_until, Priority, Spawner};
use crate::time::{SimDuration, SimTime};

/// A tick delivered by a [`ticker`]; carries its nominal firing time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tick {
    /// The virtual time at which the tick fired.
    pub at: SimTime,
    /// Ordinal of the tick, starting at 0.
    pub seq: u64,
}

/// Handle exposing overrun statistics of a ticker.
#[derive(Clone)]
pub struct TickerHandle {
    overruns: Rc<Cell<u64>>,
}

impl TickerHandle {
    /// Ticks dropped because the consumer's FIFO was full.
    pub fn overruns(&self) -> u64 {
        self.overruns.get()
    }
}

/// Spawns a periodic tick source.
///
/// * `period` — tick interval;
/// * `depth` — FIFO depth in ticks before overrun (hardware FIFO size);
/// * `drift` — relative clock drift of the driving crystal (e.g. `1e-5`);
///   positive means the local clock runs fast so ticks arrive early in
///   global time.
///
/// The ticker runs at high priority like the hardware it models: it never
/// waits for the consumer, it just drops (and counts) on overflow.
pub fn ticker(
    spawner: &Spawner,
    name: &str,
    period: SimDuration,
    depth: usize,
    drift: f64,
) -> (Receiver<Tick>, TickerHandle) {
    let (tx, rx) = buffered::<Tick>(depth.max(1));
    let overruns = Rc::new(Cell::new(0u64));
    let handle = TickerHandle {
        overruns: overruns.clone(),
    };
    let name = format!("ticker:{name}");
    spawner.spawn_prio(&name, Priority::High, async move {
        let start = crate::now();
        let mut seq: u64 = 0;
        loop {
            seq += 1;
            let at = crate::link::drifted_tick(start, period, drift, seq);
            delay_until(at).await;
            match tx.try_send(Tick { at, seq: seq - 1 }) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => overruns.set(overruns.get() + 1),
                Err(TrySendError::Closed(_)) => return,
            }
        }
    });
    (rx, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Simulation;
    use std::cell::RefCell;

    #[test]
    fn ticks_arrive_on_cadence() {
        let mut sim = Simulation::new();
        let (rx, handle) = ticker(&sim.spawner(), "codec", SimDuration::from_millis(2), 8, 0.0);
        let times = Rc::new(RefCell::new(Vec::new()));
        let t = times.clone();
        sim.spawn("consumer", async move {
            for _ in 0..5 {
                let tick = rx.recv().await.unwrap();
                t.borrow_mut().push(tick.at.as_millis());
            }
        });
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(*times.borrow(), vec![2, 4, 6, 8, 10]);
        assert_eq!(handle.overruns(), 0);
    }

    #[test]
    fn slow_consumer_overruns() {
        let mut sim = Simulation::new();
        let (rx, handle) = ticker(&sim.spawner(), "codec", SimDuration::from_millis(2), 2, 0.0);
        sim.spawn("consumer", async move {
            loop {
                crate::delay(SimDuration::from_millis(20)).await;
                if rx.recv().await.is_err() {
                    return;
                }
            }
        });
        sim.run_until(SimTime::from_secs(1));
        // 500 ticks generated, consumer absorbs ~50; FIFO depth 2.
        assert!(handle.overruns() > 400, "overruns = {}", handle.overruns());
    }

    #[test]
    fn drifting_ticker_diverges() {
        let mut sim = Simulation::new();
        // A fast crystal at +1e-4 gains one period every 10^4 periods.
        let (rx, _h) = ticker(
            &sim.spawner(),
            "fast",
            SimDuration::from_millis(2),
            1 << 20,
            1e-4,
        );
        let count = Rc::new(Cell::new(0u64));
        let c = count.clone();
        sim.spawn("consumer", async move {
            while rx.recv().await.is_ok() {
                c.set(c.get() + 1);
            }
        });
        sim.run_until(SimTime::from_secs(100));
        // Nominal 50_000 ticks in 100s; the fast clock yields ~5 extra.
        let n = count.get();
        assert!((50_004..=50_006).contains(&n), "ticks = {n}");
    }
}
