//! Regenerates every paper table/figure reproduction in one run.
//!
//! ```text
//! cargo run --release -p pandora-bench --bin repro
//! ```
//!
//! Each section cites the paper passage it reproduces; EXPERIMENTS.md
//! archives a reference run with commentary.

use pandora_bench::{ablations, audio_exps, clawback_exps, media_exps, policy_exps};

fn main() {
    #[allow(clippy::disallowed_methods, reason = "repro times its own run")]
    let t0 = std::time::Instant::now();
    println!("Pandora reproduction — regenerating all paper results");
    println!("(Jones & Hopper, \"Handling Audio and Video Streams in a");
    println!(" Distributed Environment\", SOSP 1993)");
    println!();

    let e1 = audio_exps::audio_capacity();
    println!("{}", e1.table);
    println!(
        "  -> capacities: plain = {} streams (paper: 5), full = {} (paper: 3);",
        e1.plain_capacity, e1.full_capacity
    );
    println!(
        "     context switching at full load ≈ {:.1} kHz (paper: \"probably around 5kHz\")",
        e1.ctx_switch_hz / 1e3
    );
    println!();

    let e2 = audio_exps::link_capacity();
    println!("{}", e2.table);
    println!(
        "  -> measured capacity ≈ {} streams (paper: \"100 audio streams\")",
        e2.capacity
    );
    println!();

    let e3 = audio_exps::latency_vs_segment_size();
    println!("{}", e3.table);
    println!("  -> paper: best one-way trip 8 ms; 2-block segments are the default");
    println!();

    let e4 = policy_exps::video_jitter();
    println!("{}", e4.table);
    println!("  -> paper: non-interleaved video introduces \"up to 20ms of jitter\"");
    println!();

    let e5 = clawback_exps::clawback_adaptation();
    println!("{}", e5.table);
    println!(
        "  -> mean delay during jitter {:.1} ms; settled to {:.1} ms in {:.0} s (paper: ~1 minute)",
        e5.delay_during_jitter / 1e6,
        e5.final_delay / 1e6,
        e5.adaptation_seconds
    );
    println!();

    let e6 = clawback_exps::multirate_clawback();
    println!("{}", e6.table);
    println!();

    let e7 = clawback_exps::clock_drift_tolerance();
    println!("{}", e7.table);
    println!();

    let e8 = media_exps::muting_function();
    println!("{}", e8.table);
    println!(
        "  -> reaction {} blocks; deep {} blocks, half {} blocks (paper: 22 ms each)",
        e8.reaction_blocks, e8.deep_blocks, e8.half_blocks
    );
    println!();

    let e9 = media_exps::loss_concealment();
    println!("{}", e9.table);
    println!("  -> paper ordering: sample drops < block drops; replay-last preferred");
    println!();

    let e10 = policy_exps::overload_policy();
    println!("{}", e10.table);
    println!();

    let e11 = policy_exps::command_latency();
    println!("{}", e11.table);
    println!();

    let e12 = policy_exps::split_independence();
    println!("{}", e12.table);
    println!();

    let e14 = media_exps::resegmentation();
    println!("{}", e14.table);
    println!("  -> lossless: {}", e14.lossless);
    println!();

    let e15 = clawback_exps::superjanet();
    println!("{}", e15.table);
    println!();

    let e16 = media_exps::decoupling_mechanics();
    println!("{}", e16.table);
    println!();

    let a1 = ablations::clawback_target_ablation();
    println!("{}", a1.table);
    println!();

    let a2 = ablations::audio_net_buffer_ablation();
    println!("{}", a2.table);
    println!();

    println!(
        "All tables regenerated in {:.1}s of host time.",
        t0.elapsed().as_secs_f64()
    );
}
