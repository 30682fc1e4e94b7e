//! The metric names this benchmark fixes. `BENCHMARK.json` at the root
//! declares the same names with the same units; a unit test holds the
//! two lists together, and every run checks that what it prints is
//! exactly what is declared here.

use std::collections::BTreeMap;

use crate::json::Value;

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: name, unit, direction, and the share of the
/// parent's median by which it may worsen before a change is refused.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Units say which clock a number uses: `s`, `ms`, `ns` are host time;
/// `sim_s`, `sim_ms`, `sim_us` are simulated time. The two never share a
/// number except as an explicit rate of one per the other.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_rate",
        unit: "sim_s/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "seg_rate",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_per_sim_s",
        unit: "s/sim_s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.04,
    },
    EndToEnd {
        name: "latency_p99_ms",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.06,
    },
    EndToEnd {
        name: "delivered_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
    },
];

/// Per-layer metrics: `(name, unit, better)`. A layer that a workload
/// does not exercise reports 0.
pub const PER_LAYER: [(&str, &str, Better); 75] = [
    ("sim.ctx_switches", "count", Better::Lower),
    ("sim.ns_per_ctx_switch", "ns", Better::Lower),
    ("sim.rendezvous_ns", "ns", Better::Lower),
    ("sim.ticker_ns", "ns", Better::Lower),
    ("sim.slice_ms_p50", "ms", Better::Lower),
    ("sim.slice_ms_p99", "ms", Better::Lower),
    ("sim.tasks_live", "count", Better::Lower),
    ("shard.speedup_vs_1", "ratio", Better::Higher),
    ("shard.cpu_ratio_vs_1", "ratio", Better::Lower),
    ("shard.events", "count", Better::Lower),
    ("shard.trace_identical", "count", Better::Higher),
    ("segment.encode_ns", "ns", Better::Lower),
    ("segment.decode_ns", "ns", Better::Lower),
    ("segment.est_share", "ratio", Better::Lower),
    ("slab.alloc_ns", "ns", Better::Lower),
    ("slab.copied_bytes_per_seg", "B", Better::Lower),
    ("slab.alloc_failures", "count", Better::Lower),
    ("slab.est_share", "ratio", Better::Lower),
    ("buffers.pool_alloc_ns", "ns", Better::Lower),
    ("buffers.pool_exhausted", "count", Better::Lower),
    ("buffers.clawback_ns_per_block", "ns", Better::Lower),
    ("buffers.clawback_silence_blocks", "count", Better::Lower),
    ("buffers.clawback_delay_ms_p50", "sim_ms", Better::Lower),
    ("buffers.decoupling_dropped", "count", Better::Lower),
    ("buffers.decoupling_high_watermark", "count", Better::Lower),
    ("buffers.est_share", "ratio", Better::Lower),
    ("atm.cells", "count", Better::Lower),
    ("atm.aal_tx_ns_per_cell", "ns", Better::Lower),
    ("atm.aal_rx_ns_per_cell", "ns", Better::Lower),
    ("atm.switch_ns_per_cell", "ns", Better::Lower),
    ("atm.switch_overflow", "count", Better::Lower),
    ("atm.frames_discarded", "count", Better::Lower),
    ("atm.est_share", "ratio", Better::Lower),
    ("audio.mix_ticks", "count", Better::Lower),
    ("audio.mix_ns_per_tick", "ns", Better::Lower),
    ("audio.codec_ns_per_block", "ns", Better::Lower),
    ("audio.muting_ns_per_block", "ns", Better::Lower),
    ("audio.concealed_blocks", "count", Better::Lower),
    ("audio.late_ticks", "count", Better::Lower),
    ("audio.est_share", "ratio", Better::Lower),
    ("video.frames_written", "count", Better::Lower),
    ("video.frame_write_ns", "ns", Better::Lower),
    ("video.capture_ns_per_seg", "ns", Better::Lower),
    ("video.dpcm_enc_ns_per_seg", "ns", Better::Lower),
    ("video.dpcm_dec_ns_per_seg", "ns", Better::Lower),
    ("video.frames_dropped", "count", Better::Lower),
    ("video.est_share", "ratio", Better::Lower),
    ("core.idle_box_s_per_sim_s", "s/sim_s", Better::Lower),
    ("core.switch_forwarded", "count", Better::Lower),
    ("core.switch_dropped", "count", Better::Lower),
    ("core.p3_drops", "count", Better::Lower),
    ("core.audio_wait_us_p99", "sim_us", Better::Lower),
    ("session.ops", "count", Better::Lower),
    ("session.op_ms_p50", "sim_ms", Better::Lower),
    ("session.op_ms_p99", "sim_ms", Better::Lower),
    ("session.rejections", "count", Better::Lower),
    ("session.timeouts", "count", Better::Lower),
    ("session.msg_codec_ns", "ns", Better::Lower),
    ("session.est_share", "ratio", Better::Lower),
    ("overlay.plan_s", "s", Better::Lower),
    ("overlay.slices_forwarded", "count", Better::Lower),
    ("overlay.relay_ns_per_slice", "ns", Better::Lower),
    ("overlay.hop_us_p50", "sim_us", Better::Lower),
    ("overlay.hop_us_p99", "sim_us", Better::Lower),
    ("overlay.stripe_gap_max_us", "sim_us", Better::Lower),
    ("overlay.p3_drops", "count", Better::Lower),
    ("overlay.p8_skips", "count", Better::Lower),
    ("overlay.grafts", "count", Better::Lower),
    ("overlay.unrepairable", "count", Better::Lower),
    ("overlay.est_share", "ratio", Better::Lower),
    ("walk.span_overhead_ns", "ns", Better::Lower),
    ("walk.attributed_share", "ratio", Better::Higher),
    ("walk.unattributed_s", "s", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
    ("trace.spans", "count", Better::Lower),
];

/// One measured value. `n` is the sample count behind a timing or
/// percentile; plain counts carry none.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub n: Option<u64>,
}

/// Metrics by name, in name order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet(pub BTreeMap<&'static str, Metric>);

impl MetricSet {
    /// Records `name`; the unit comes from the declaration, so a name
    /// that is not declared is a bug in the harness and panics.
    pub fn set(&mut self, name: &'static str, value: f64, n: Option<u64>) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        self.0.insert(name, Metric { value, unit, n });
    }

    /// The metrics as a JSON object. The driver's result line wants
    /// exactly `value` and `unit` per name; result files also state the
    /// sample count (`with_n`).
    pub fn to_json(&self, with_n: bool) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|(name, m)| {
                    let mut fields = BTreeMap::from([
                        ("value".to_string(), Value::Num(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]);
                    if with_n {
                        let n = m.n.map_or(Value::Null, |n| Value::Num(n as f64));
                        fields.insert("n".to_string(), n);
                    }
                    (name.to_string(), Value::Obj(fields))
                })
                .collect(),
        )
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|(_, u, _)| *u)
        })
}

/// A metric name as the contract allows it: starts with a letter or a
/// digit, then at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit as the contract allows it.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Names declared for a `--trace 0` run, or for a `--trace 1` run.
pub fn declared(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|(n, _, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

/// Names declared but not printed, and printed but not declared.
pub fn name_mismatch(printed: &MetricSet, trace: bool) -> (Vec<&'static str>, Vec<&'static str>) {
    let declared = declared(trace);
    let missing = declared
        .iter()
        .copied()
        .filter(|n| !printed.0.contains_key(n))
        .collect();
    let extra = printed
        .0
        .keys()
        .copied()
        .filter(|n| !declared.contains(n))
        .collect();
    (missing, extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workload::Workload;

    #[test]
    fn names_and_units_follow_the_contract() {
        for m in &END_TO_END {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for (name, unit, _) in &PER_LAYER {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        let mut all: Vec<&str> = declared(false);
        all.extend(declared(true));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a metric name is used twice");
    }

    #[test]
    fn name_validation_rejects_what_the_contract_rejects() {
        assert!(valid_name("sim.ns_per_ctx_switch"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("sim_s/s"));
        assert!(!valid_unit("S ms"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn printed_names_must_equal_declared_names() {
        let mut set = MetricSet::default();
        for name in declared(false) {
            set.set(name, 1.0, None);
        }
        assert_eq!(name_mismatch(&set, false), (vec![], vec![]));
        set.0.remove("sim_rate");
        set.set("atm.cells", 1.0, None);
        let (missing, extra) = name_mismatch(&set, false);
        assert_eq!(missing, vec!["sim_rate"]);
        assert_eq!(extra, vec!["atm.cells"]);
    }

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// file does, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_declares_what_the_harness_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS as f64)
        );

        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::DECLARED.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
        let e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
            .collect();
        assert_eq!(layers, ours);
    }
}
