//! The recorders held to plain models: a `Vec<f64>` histogram (the form
//! [`Histogram`] had before it kept integral samples as `u32`) and a
//! `Vec<(u64, f64)>` series, compared bit for bit after every operation,
//! across clones that keep recording on either side.

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

    fn stddev(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.samples.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.samples.len() as f64;
        var.sqrt()
    }

    fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum / self.samples.len() as f64
        }
    }

    fn min(&self) -> f64 {
        let min = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            min
        } else {
            0.0
        }
    }

    fn max(&self) -> f64 {
        let max = self
            .samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if max.is_finite() {
            max
        } else {
            0.0
        }
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
    /// Merge a clone of twin `.1` into twin `.0`.
    MergeTwin(usize, usize),
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
                6 => Op::MergeTwin(at, t.gen_range(0..twins)),
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
    assert_eq!(bits(h.stddev()), bits(m.stddev()), "twin {twin}: stddev");
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
                Op::MergeTwin(at, from) => {
                    let (h, m) = twins[from].clone();
                    twins[at].0.merge(&h);
                    twins[at].1.merge(&m);
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

#[test]
fn series_clones_match_a_vector_of_points() {
    let ops = |t: &mut Tape| {
        let len = t.gen_range(0..60usize);
        let mut twins = 1;
        (0..len)
            .map(|_| {
                let at = t.gen_range(0..twins);
                if t.gen_bool(0.2) {
                    twins += 1;
                    SeriesOp::Clone(at)
                } else {
                    SeriesOp::Push(at, t.gen_range(0..100u64), value(t))
                }
            })
            .collect::<Vec<_>>()
    };
    check("series_model", 1, 600, ops, |ops| {
        let mut twins = vec![(TimeSeries::new("s"), Vec::<(u64, f64)>::new())];
        for op in ops {
            match *op {
                SeriesOp::Push(at, t, v) => {
                    let (s, m) = &mut twins[at];
                    s.push(t, v);
                    let t = m.last().map_or(t, |&(last, _)| t.max(last));
                    m.push((t, v));
                }
                SeriesOp::Clone(at) => {
                    let twin = twins[at].clone();
                    twins.push(twin);
                }
            }
            let bits = |p: &[(u64, f64)]| -> Vec<(u64, u64)> {
                p.iter().map(|&(t, v)| (t, v.to_bits())).collect()
            };
            for (i, (s, m)) in twins.iter().enumerate() {
                assert_eq!(bits(s.points()), bits(m), "twin {i}");
                for t in [0, 50, 100] {
                    let before = m.iter().rev().find(|&&(pt, _)| pt <= t);
                    let expected = before.map(|&(_, v)| v.to_bits());
                    assert_eq!(s.value_at(t).map(f64::to_bits), expected, "twin {i} at {t}");
                }
            }
        }
    });
}
