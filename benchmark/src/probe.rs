//! Small fixed scenarios that price the executor and an idle box on
//! their own, so the per-layer table can say what a context switch, a
//! ticker and a box that carries no stream cost.

use std::time::Instant;

use pandora_session::{Star, StarConfig};
use pandora_sim::{channel, ticker, SimDuration, SimTime, Simulation};

/// Rendezvous exchanged by the two probe tasks.
const RENDEZVOUS: u64 = 200_000;
/// Tickers of the ticker probe, their period, and how long they run.
const TICKERS: usize = 64;
const TICK_PERIOD: SimDuration = SimDuration::from_millis(2);
const TICKER_RUN: SimDuration = SimDuration::from_secs(4);
/// Simulated seconds the idle one-box star runs.
const IDLE_BOX_RUN: SimDuration = SimDuration::from_secs(5);

/// What a probe measured, with the operations behind the figure.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub value: f64,
    pub n: u64,
}

/// Host ns per rendezvous: two tasks passing a counter over an
/// unbuffered channel.
pub fn rendezvous_ns() -> Probe {
    let mut sim = Simulation::new();
    let (tx, rx) = channel::<u64>();
    sim.spawn("probe:ping", async move {
        for i in 0..RENDEZVOUS {
            if tx.send(i).await.is_err() {
                return;
            }
        }
    });
    sim.spawn("probe:pong", async move {
        let mut sum = 0u64;
        while let Ok(v) = rx.recv().await {
            sum = sum.wrapping_add(v);
        }
        std::hint::black_box(sum);
    });
    let t0 = Instant::now();
    sim.run_until_idle();
    Probe {
        value: t0.elapsed().as_nanos() as f64 / RENDEZVOUS as f64,
        n: RENDEZVOUS,
    }
}

/// Host ns per tick delivered: 64 tickers at 2 ms, each drained by its
/// own task — the shape of every box's codec and mixer clocks.
pub fn ticker_ns() -> Probe {
    let mut sim = Simulation::new();
    let spawner = sim.spawner();
    let mut handles = Vec::new();
    for i in 0..TICKERS {
        let (rx, handle) = ticker(&spawner, &format!("probe:tick{i}"), TICK_PERIOD, 4, 0.0);
        handles.push(handle);
        sim.spawn(&format!("probe:drain{i}"), async move {
            while let Ok(tick) = rx.recv().await {
                std::hint::black_box(tick.seq);
            }
        });
    }
    let t0 = Instant::now();
    sim.run_until(SimTime::ZERO + TICKER_RUN);
    let ticks = TICKERS as u64 * (TICKER_RUN.as_nanos() / TICK_PERIOD.as_nanos());
    Probe {
        value: t0.elapsed().as_nanos() as f64 / ticks as f64,
        n: ticks,
    }
}

/// Host seconds per simulated second of one box that carries no stream:
/// a one-box star, nothing opened, run for five simulated seconds.
pub fn idle_box_s_per_sim_s() -> Probe {
    let mut sim = Simulation::new();
    let star = Star::build(&sim.spawner(), 1, StarConfig::default());
    let t0 = Instant::now();
    sim.run_until(SimTime::ZERO + IDLE_BOX_RUN);
    let wall = t0.elapsed().as_secs_f64();
    drop(star);
    Probe {
        value: wall / IDLE_BOX_RUN.as_secs_f64(),
        n: IDLE_BOX_RUN.as_nanos() / 1_000_000_000,
    }
}
