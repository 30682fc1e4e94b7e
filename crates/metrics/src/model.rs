//! The recorders held to plain models: a `Vec<f64>` histogram that copies
//! on merge and sorts for a percentile (the form [`Histogram`] had before
//! it kept integral samples as `u32`, shared merged storage and selected
//! in place) and a `Vec<(u64, f64)>` series, compared bit for bit after
//! every operation, across clones and merges that keep recording on either
//! side.

use pandora_prop::{check, Rng, Tape};

use crate::{Histogram, TimeSeries};

/// A histogram as a plain vector: samples in recording order until a
/// percentile sorts them, a running sum, nearest-rank percentiles.
#[derive(Debug, Clone, Default)]
struct Model {
    samples: Vec<f64>,
    sum: f64,
}

impl Model {
    fn record(&mut self, v: f64) {
        if v.is_finite() {
            self.samples.push(v);
            self.sum += v;
        }
    }

    fn merge(&mut self, other: &Model) {
        self.samples.extend_from_slice(&other.samples);
        self.sum += other.sum;
    }

    fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.sort_by(f64::total_cmp);
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.samples.len() as f64).ceil() as usize;
        self.samples[rank.saturating_sub(1)]
    }

    fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum / self.samples.len() as f64
        }
    }

    fn min(&self) -> f64 {
        let min = self.samples.iter().copied().min_by(f64::total_cmp);
        min.unwrap_or(0.0)
    }

    fn max(&self) -> f64 {
        let max = self.samples.iter().copied().max_by(f64::total_cmp);
        max.unwrap_or(0.0)
    }
}

/// A sample: mostly integers inside `u32`, and every kind that is not.
fn value(t: &mut Tape) -> f64 {
    match t.gen_range(0..12u8) {
        0..=3 => f64::from(t.gen_range(0..16u32)),
        4 | 5 => f64::from(t.gen_range(0..=u32::MAX)),
        6 => t.gen_range(1u64 << 32..1 << 53) as f64,
        7 => f64::from(u32::MAX) + f64::from(t.gen_range(0..3u8)),
        8 => t.gen_range(-1e6..1e6),
        9 => -f64::from(t.gen_range(1..=u32::MAX)),
        10 => [0.0, -0.0, 0.5][t.gen_range(0..3usize)],
        _ => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][t.gen_range(0..3usize)],
    }
}

fn values(t: &mut Tape, narrow: bool) -> Vec<f64> {
    let len = t.gen_range(0..12usize);
    let draw = |t: &mut Tape| {
        if narrow {
            f64::from(t.gen_range(0..=u32::MAX))
        } else {
            value(t)
        }
    };
    (0..len).map(|_| draw(t)).collect()
}

#[derive(Debug)]
enum Op {
    /// Record into twin `.0`.
    Record(usize, f64),
    /// Merge these samples into twin `.0`.
    Merge(usize, Vec<f64>),
    /// Merge a clone of twin `.1` (perhaps twin `.0` itself) into twin
    /// `.0`, then record `.2` on both sides.
    MergeTwin(usize, usize, Option<f64>),
    Percentile(usize, f64),
    /// Clone twin `.0` into a new twin.
    Clone(usize),
}

fn ops(t: &mut Tape) -> Vec<Op> {
    let len = t.gen_range(0..80usize);
    let mut twins = 1;
    (0..len)
        .map(|_| {
            let at = t.gen_range(0..twins);
            match t.gen_range(0..10u8) {
                0..=4 => Op::Record(at, value(t)),
                5 => {
                    let narrow = t.gen_bool(0.5);
                    Op::Merge(at, values(t, narrow))
                }
                6 => {
                    let from = if t.gen_bool(0.3) {
                        at
                    } else {
                        t.gen_range(0..twins)
                    };
                    Op::MergeTwin(at, from, t.gen_bool(0.5).then(|| value(t)))
                }
                7 | 8 => Op::Percentile(at, t.gen_range(-5.0..105.0)),
                _ => {
                    twins += 1;
                    Op::Clone(at)
                }
            }
        })
        .collect()
}

fn assert_matches(h: &Histogram, m: &Model, twin: usize) {
    let bits = |v: f64| v.to_bits();
    assert_eq!(h.count(), m.samples.len(), "twin {twin}: count");
    assert_eq!(h.is_empty(), m.samples.is_empty(), "twin {twin}: is_empty");
    assert_eq!(bits(h.mean()), bits(m.mean()), "twin {twin}: mean");
    assert_eq!(bits(h.min()), bits(m.min()), "twin {twin}: min");
    assert_eq!(bits(h.max()), bits(m.max()), "twin {twin}: max");
}

#[test]
fn histograms_match_a_vector_of_f64_bit_for_bit() {
    check("histogram_model", 1, 600, ops, |ops| {
        let mut twins = vec![(Histogram::new(), Model::default())];
        for op in ops {
            match *op {
                Op::Record(at, v) => {
                    twins[at].0.record(v);
                    twins[at].1.record(v);
                }
                Op::Merge(at, ref values) => {
                    let (mut h, mut m) = (Histogram::new(), Model::default());
                    for &v in values {
                        h.record(v);
                        m.record(v);
                    }
                    twins[at].0.merge(&h);
                    twins[at].1.merge(&m);
                }
                Op::MergeTwin(at, from, then) => {
                    let (h, m) = twins[from].clone();
                    twins[at].0.merge(&h);
                    twins[at].1.merge(&m);
                    if let Some(v) = then {
                        for i in [at, from] {
                            twins[i].0.record(v);
                            twins[i].1.record(v);
                        }
                    }
                }
                Op::Percentile(at, p) => {
                    let (h, m) = &mut twins[at];
                    assert_eq!(h.percentile(p).to_bits(), m.percentile(p).to_bits(), "p{p}");
                }
                Op::Clone(at) => {
                    let twin = twins[at].clone();
                    twins.push(twin);
                }
            }
            // Every twin, not only the one written: a clone never sees
            // a later record on its twin.
            for (i, (h, m)) in twins.iter().enumerate() {
                assert_matches(h, m, i);
            }
        }
        for (i, (h, m)) in twins.iter_mut().enumerate() {
            for p in [0.0, 50.0, 99.0, 100.0] {
                assert_eq!(
                    h.percentile(p).to_bits(),
                    m.percentile(p).to_bits(),
                    "{i}: p{p}"
                );
            }
            assert_matches(h, m, i);
        }
    });
}

/// A series op: push `(t, v)` on twin `.0`, or clone twin `.0`.
#[derive(Debug)]
enum SeriesOp {
    Push(usize, u64, f64),
    Clone(usize),
}

/// Up to 700 points: steps of 0–3 and of 2³² or more, and times before
/// the last (clamped). Half the cases draw from a few repeating values;
/// in the other half most values are new, so a long case passes 255
/// distinct `(step, value)` pairs.
fn series_ops(t: &mut Tape) -> Vec<SeriesOp> {
    let len = t.gen_range(0..700usize);
    let varied = t.gen_bool(0.5);
    let (mut twins, mut now) = (1, 0u64);
    (0..len)
        .map(|_| {
            let at = t.gen_range(0..twins);
            // A shrunk tape's zeros are pushes, not clones.
            if !t.gen_bool(0.99) {
                twins += 1;
                return SeriesOp::Clone(at);
            }
            now = match t.gen_range(0..8u8) {
                0..=4 => now + t.gen_range(0..4u64),
                5 => now + t.gen_range(1u64 << 32..1 << 40),
                6 => now.saturating_sub(t.gen_range(1..50u64)),
                _ => now + t.gen_range(0..1u64 << 20),
            };
            let v = match varied {
                false => [1.0, 0.5, 0.2][t.gen_range(0..3usize)],
                true if t.gen_bool(0.2) => value(t),
                true => t.gen_range(-1e3..1e3),
            };
            SeriesOp::Push(at, now, v)
        })
        .collect()
}

fn assert_points(s: &TimeSeries, m: &[(u64, f64)], twin: usize) {
    let bits = |p: (u64, f64)| (p.0, p.1.to_bits());
    let got: Vec<_> = s.points().iter().map(bits).collect();
    let expected: Vec<_> = m.iter().copied().map(bits).collect();
    assert_eq!(got, expected, "twin {twin}");
    for n in [0, 1, 2, 7, 30] {
        // The old `downsample`: index the vector directly.
        let expected: Vec<_> = if n == 0 || m.len() <= n {
            expected.clone()
        } else {
            let step = (m.len() - 1) as f64 / (n - 1) as f64;
            (0..n)
                .map(|i| bits(m[(i as f64 * step).round() as usize]))
                .collect()
        };
        let got: Vec<_> = s.downsample(n).into_iter().map(bits).collect();
        assert_eq!(got, expected, "twin {twin}: downsample({n})");
    }
}

#[test]
fn series_clones_match_a_vector_of_points() {
    check("series_model", 1, 300, series_ops, |ops| {
        let mut twins = vec![(TimeSeries::new("s"), Vec::<(u64, f64)>::new())];
        for op in ops {
            match *op {
                SeriesOp::Push(at, t, v) => {
                    let (s, m) = &mut twins[at];
                    s.push(t, v);
                    let t = m.last().map_or(t, |&(last, _)| t.max(last));
                    m.push((t, v));
                    assert_eq!(s.len(), m.len());
                    let last = m.last().map(|p| p.1.to_bits());
                    assert_eq!(s.last_value().map(f64::to_bits), last);
                }
                SeriesOp::Clone(at) => {
                    let twin = twins[at].clone();
                    twins.push(twin);
                    // Every twin, not only the one cloned: a clone never
                    // sees a later push on its twin.
                    for (i, (s, m)) in twins.iter().enumerate() {
                        assert_points(s, m, i);
                    }
                }
            }
        }
        for (i, (s, m)) in twins.iter().enumerate() {
            assert_points(s, m, i);
        }
    });
}
