//! # pandora-sim — a deterministic transputer-style simulation kernel
//!
//! This crate is the substrate substitution for the Inmos transputer
//! hardware and Occam 2 runtime that Pandora was built on (see the paper's
//! §3.1 and DESIGN.md §2). It provides:
//!
//! * a single-threaded, deterministic, virtual-time **executor**
//!   ([`Simulation`]) with two task priorities, timers and a
//!   context-switch counter. A blocked leaf future registers the
//!   [`TaskWaker`] that [`waker`] returns — a task id plus an `Rc` on the
//!   simulation's wake queue, `!Send` by construction — never the std
//!   waker in its `Context`, which is inert and panics when woken;
//! * **rendezvous channels** ([`channel`]) with Occam semantics — a send
//!   completes only when received — plus [`buffered`] and [`unbounded`]
//!   variants for hardware FIFOs and report sinks;
//! * **PRI ALT** ([`alt2`], [`recv_deadline`]) — prioritized
//!   alternation so command channels can never be starved (Principle 4);
//! * **virtual CPUs** ([`Cpu`]) with non-preemptive priority dispatch and
//!   context-switch surcharges, so overload behaviour (the subject of the
//!   paper's principles) emerges from resource exhaustion;
//! * **links** ([`link`], [`link_over`], [`LinkControl`]) with
//!   bandwidth-limited, back-pressured transfer (Inmos links and board
//!   FIFOs) out of the queue in front of them, a synchronous face
//!   ([`LinkControl::hold`]) for an engine that clocks many links from one
//!   task, and the network's
//!   [`long_line`] — the same serialiser, which stamps what it
//!   carried with its arrival instant and queues it instead of
//!   delivering it, so nothing downstream can hold the wire;
//! * **tickers** ([`ticker`]) modelling the event-pin-driven codec FIFO,
//!   with overflow counting and configurable crystal drift.
//!
//! Everything runs in virtual time: a simulated minute of audio costs
//! milliseconds of host time, and two runs with the same seeds produce
//! identical schedules — which is what makes the paper's tables exactly
//! reproducible.
//!
//! ## Example
//!
//! ```
//! use pandora_sim::{Simulation, SimDuration};
//!
//! let mut sim = Simulation::new();
//! let (tx, rx) = pandora_sim::channel::<&'static str>();
//! sim.spawn("producer", async move {
//!     pandora_sim::delay(SimDuration::from_millis(2)).await;
//!     tx.send("block").await.unwrap();
//! });
//! sim.spawn("consumer", async move {
//!     assert_eq!(rx.recv().await.unwrap(), "block");
//! });
//! sim.run_until_idle();
//! assert_eq!(sim.now().as_millis(), 2);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

mod alt;
mod channel;
mod cpu;
mod executor;
mod link;
mod ticker;
mod time;

pub use alt::{alt2, recv_deadline, Alt2, Either2, RecvDeadline};
pub use channel::{
    buffered, channel, unbounded, Receiver, RecvError, RecvFuture, SendError, SendFuture, Sender,
    TrySendError,
};
pub use cpu::{Claim, ClaimPriority, Cpu, PRIO_COMMAND, PRIO_NORMAL, PRIO_OUTPUT};
pub use executor::{
    delay, delay_until, now, pause_matching, resume_matching, spawn, spawn_prio, try_now, waker,
    yield_now, DeadlockReport, Delay, Priority, Simulation, Spawner, StopReason, TaskId, TaskWaker,
};
pub use link::{
    drifted_tick, link, link_over, link_queue, long_line, LinkConfig, LinkControl, LinkSender,
    WireSize,
};
pub use ticker::{ticker, Tick, TickerHandle};
pub use time::{SimDuration, SimTime};
