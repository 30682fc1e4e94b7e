//! The path builder's fold (one wire task and one release task per hop)
//! pinned from outside: a golden history recorded on the last commit that
//! still ran stamper/delayer pairs, the task census of three paths, and
//! that of a star's attachments and the links of its boxes' input devices.

use std::cell::RefCell;
use std::rc::Rc;

use pandora_atm::{build_path_controlled, Cell, HopConfig, JitterModel, Vci};
use pandora_audio::gen::Tone;
use pandora_faults::{install, FaultKind, FaultPlan, FaultTargets};
use pandora_session::{point_to_point, StarConfig};
use pandora_sim::{SimDuration, SimTime, Simulation};
use pandora_video::dpcm::LineMode;
use pandora_video::{CaptureConfig, RateFraction, Rect};

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn bursty(base_us: u64, burst_us: u64, burst_prob: f64) -> JitterModel {
    JitterModel::Bursty {
        base: SimDuration::from_micros(base_us),
        burst: SimDuration::from_micros(burst_us),
        burst_prob,
    }
}

/// FNV-1a over every `(seq, delivery instant ns, payload)` of a 3-hop
/// path under a scripted fault plan, then over the hops' loss counts and
/// the injected-fault counts. Recorded on the parent of the fold, where
/// this path was fifteen tasks (three wires, a prop task each, a
/// stamper/delayer pair for each jittered hop and for the fault stage, a
/// loss task, two pumps); the six that are left must reproduce it bit for
/// bit.
///
/// The two jittered hops come first so that, on the recording commit, an
/// unbounded stamper queue stood between every wire and whatever could
/// block downstream of it, and no hop ever holds 257 cells in flight —
/// the two regimes where the old wires stalled and the new ones do not.
const GOLDEN_PATH_DIGEST: u64 = 6_929_869_586_349_519_361;

#[test]
fn three_hop_path_history_is_bit_equal_to_the_recording() {
    let mut sim = Simulation::new();
    let hops = [
        HopConfig {
            bits_per_sec: 155_000_000,
            latency: SimDuration::from_micros(300),
            jitter: bursty(200, 2_000, 0.1),
            loss: 0.0,
        },
        HopConfig {
            bits_per_sec: 100_000_000,
            latency: SimDuration::from_micros(700),
            jitter: bursty(500, 4_000, 0.05),
            loss: 0.02,
        },
        HopConfig {
            bits_per_sec: 50_000_000,
            latency: SimDuration::from_micros(250),
            jitter: JitterModel::None,
            loss: 0.0,
        },
    ];
    let (tx, rx, stats, ctrl) = build_path_controlled(&sim.spawner(), "g", &hops, 1993);
    let mut targets = FaultTargets::new();
    targets.register_path("g", ctrl.clone());
    let ms = SimDuration::from_millis;
    let path = || "g".to_string();
    let plan = FaultPlan::default()
        .event(
            ms(10),
            Some(ms(15)),
            FaultKind::CellLossBurst {
                path: path(),
                prob: 0.2,
            },
        )
        .event(
            ms(30),
            Some(ms(15)),
            FaultKind::CellCorruption {
                path: path(),
                prob: 0.3,
            },
        )
        .event(
            ms(50),
            Some(ms(20)),
            FaultKind::LatencyStep {
                path: path(),
                extra: ms(3),
            },
        )
        .event(
            ms(80),
            Some(ms(6)),
            FaultKind::LinkDown {
                path: path(),
                hop: 1,
            },
        )
        .event(
            ms(100),
            Some(ms(15)),
            FaultKind::BandwidthCollapse {
                path: path(),
                hop: 2,
                permille: 250,
            },
        )
        // A second, smaller step with a loss burst inside it, so the
        // egress draws and the release clamp are exercised together.
        .event(
            ms(125),
            Some(ms(10)),
            FaultKind::LatencyStep {
                path: path(),
                extra: ms(1),
            },
        )
        .event(
            ms(127),
            Some(ms(5)),
            FaultKind::CellLossBurst {
                path: path(),
                prob: 0.1,
            },
        );
    let trace = install(&sim.spawner(), &plan, &targets);
    // 30 bursts of 160 cells handed over as fast as hop 0 takes them,
    // then 4 ms of silence: hop 2 (a third of hop 0's rate) is busy about
    // a quarter of the time, and overloaded while collapsed.
    sim.spawn("send", async move {
        let mut seq = 0u32;
        for _ in 0..30 {
            for _ in 0..160 {
                let fill = seq.to_le_bytes();
                let payload: Vec<u8> = (0..1 + seq as usize % 48)
                    .map(|i| fill[i % 4] ^ i as u8)
                    .collect();
                if tx
                    .send(Cell::new(Vci(7), seq, seq % 160 == 159, &payload))
                    .await
                    .is_err()
                {
                    return;
                }
                seq += 1;
            }
            pandora_sim::delay(SimDuration::from_millis(4)).await;
        }
    });
    let digest = Rc::new(RefCell::new((0xcbf2_9ce4_8422_2325u64, 0u64)));
    let d = digest.clone();
    sim.spawn("recv", async move {
        while let Ok(cell) = rx.recv().await {
            let mut d = d.borrow_mut();
            let mut h = fnv1a(d.0, &cell.seq.to_le_bytes());
            h = fnv1a(h, &pandora_sim::now().as_nanos().to_le_bytes());
            d.0 = fnv1a(h, cell.data());
            d.1 += 1;
        }
    });
    sim.run_until(SimTime::from_millis(400));
    let (mut h, delivered) = *digest.borrow();
    let mut lost_in_hops = 0;
    for s in &stats {
        h = fnv1a(h, &s.forwarded().to_le_bytes());
        h = fnv1a(h, &s.dropped().to_le_bytes());
        lost_in_hops += s.dropped();
    }
    h = fnv1a(h, &ctrl.injected_drops().to_le_bytes());
    h = fnv1a(h, &ctrl.injected_corruptions().to_le_bytes());
    // The plan ran whole and every fault kind bit, or the digest pins
    // less than it says.
    assert_eq!(trace.len(), 15, "{}", trace.to_text());
    assert!(lost_in_hops > 50, "hop loss {lost_in_hops}");
    assert!(ctrl.injected_drops() > 50, "{}", ctrl.injected_drops());
    assert!(
        ctrl.injected_corruptions() > 50,
        "{}",
        ctrl.injected_corruptions()
    );
    assert_eq!(
        delivered + lost_in_hops + ctrl.injected_drops(),
        30 * 160,
        "cells unaccounted for"
    );
    assert_eq!(h, GOLDEN_PATH_DIGEST, "the path's simulated history moved");
}

/// Path tasks alive before any driver task is spawned, and context
/// switches (driver tasks included) of 100 cells sent 1 ms apart.
fn census(hops: &[HopConfig]) -> (usize, u64) {
    let mut sim = Simulation::new();
    let (tx, rx, _stats, _ctrl) = build_path_controlled(&sim.spawner(), "c", hops, 577);
    let path_tasks = sim.live_tasks();
    sim.spawn("send", async move {
        for i in 0..100 {
            if tx.send(Cell::new(Vci(1), i, false, &[])).await.is_err() {
                return;
            }
            pandora_sim::delay(SimDuration::from_millis(1)).await;
        }
    });
    let got = Rc::new(RefCell::new(0u32));
    let g = got.clone();
    sim.spawn("recv", async move {
        while rx.recv().await.is_ok() {
            *g.borrow_mut() += 1;
        }
    });
    sim.run_until_idle();
    assert!(*got.borrow() >= 80, "delivered {}", got.borrow());
    (path_tasks, sim.context_switches())
}

#[test]
fn a_hop_costs_two_tasks_whatever_it_models() {
    // The benchmark's videophone attachment (§3.7.2's bursty jitter).
    let videophone = HopConfig {
        bits_per_sec: 50_000_000,
        latency: SimDuration::from_micros(250),
        jitter: bursty(1_000, 10_000, 0.02),
        loss: 0.0,
    };
    let lossy = HopConfig {
        bits_per_sec: 34_000_000,
        latency: SimDuration::from_millis(2),
        jitter: bursty(4_000, 25_000, 0.03),
        loss: 0.01,
    };
    // (hops, path tasks, context-switch ceiling). With a stamper/delayer
    // pair per stage, a prop task per long line and a pump between hops
    // these read 3 / 6 / 19 tasks and 809 / 1,413 / 3,087 switches.
    let cases: [(&[HopConfig], usize, u64); 3] = [
        (&[HopConfig::clean(50_000_000)], 2, 620),
        (&[videophone], 2, 690),
        (&[lossy, lossy, lossy], 6, 1_330),
    ];
    for (hops, tasks, ceiling) in cases {
        let (path_tasks, switches) = census(hops);
        assert_eq!(path_tasks, tasks, "{} hop(s)", hops.len());
        assert!(
            switches <= ceiling,
            "{} hop(s): {switches} context switches > {ceiling}",
            hops.len()
        );
    }
}

#[test]
fn a_star_attachment_is_four_tasks_and_no_task_stands_before_a_wire() {
    let sim = Simulation::new();
    let star = point_to_point(&sim.spawner(), StarConfig::default());
    for node in &star.nodes {
        node.boxy
            .start_audio_source(Box::new(Tone::new(440.0, 8_000.0)));
        node.boxy.start_video_capture(CaptureConfig {
            rect: Rect::new(0, 0, 128, 96),
            rate: RateFraction::new(2, 5),
            lines_per_segment: 32,
            mode: LineMode::Dpcm,
        });
    }
    let names: Vec<String> = sim.dump_tasks().into_iter().map(|(name, _)| name).collect();
    let count = |pred: &dyn Fn(&str) -> bool| names.iter().filter(|n| pred(n)).count();
    // One-hop attachments: a wire and a release stage each way.
    for attachment in ["node0", "node1", "controller"] {
        let of_path = |n: &str| {
            n.strip_prefix("link:")
                .or(n.strip_prefix("hop:"))
                .and_then(|rest| rest.strip_prefix(attachment))
                .is_some_and(|rest| rest.starts_with(".ab.") || rest.starts_with(".ba."))
        };
        assert_eq!(count(&of_path), 4, "{attachment}: {names:?}");
    }
    // The microphones and cameras are wired ...
    assert_eq!(count(&|n| n.contains(".mic-link:")), 2, "{names:?}");
    assert_eq!(count(&|n| n.contains(".capture-fifo:")), 2, "{names:?}");
    // ... and the tasks whose whole body was `recv -> send` into a wire
    // are gone: three port pumps, two microphone and two camera pumps.
    let pump = |n: &str| {
        n.starts_with("star:port")
            || n.contains(":audio-in-handler:")
            || n.contains(":capture-fifo-pump:")
    };
    assert_eq!(count(&pump), 0, "{names:?}");
}
