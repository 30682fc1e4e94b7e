//! Batched-vs-scalar equivalence: the fixed-point mixing and slice DPCM
//! paths must be byte-identical to the per-unit reference paths they
//! replace, and the two AAL reassemblers to each other, across seeds and
//! under fault plans.
//!
//! The batched mixer and the slice codec are what the pipeline runs; the
//! scalar mixer and the per-line codec stay as their conformance oracles.
//! Cells have one path only (there is no batched fabric), but two
//! reassemblers sit at its end — `Reassembler` for slab-less units,
//! `SlabReassembler` for boxes — and this suite pins each pair together:
//! same frames, same counters, same bytes, for 10 seeds each.

use pandora_atm::{
    build_path_controlled, segment_to_cells, Cell, HopConfig, Reassembler, SlabReassembler, Vci,
};
use pandora_audio::{mix_blocks, mix_blocks_scalar, mix_blocks_scaled, Block, Q15};
use pandora_buffers::ByteSlab;
use pandora_prop::{check, Rng, Tape};
use pandora_sim::Simulation;
use pandora_video::dpcm::{
    compress_line, compress_slice, decompress_line, decompress_slice, LineMode,
};
use std::cell::RefCell;
use std::rc::Rc;

const SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89];

fn noise(t: &mut Tape, len: usize) -> Vec<u8> {
    (0..len).map(|_| t.gen_range(0..=255u8)).collect()
}

/// `count` blocks of noise.
fn blocks(t: &mut Tape, count: usize) -> Vec<Block> {
    (0..count)
        .map(|_| Block(std::array::from_fn(|_| t.gen_range(0..=255u8))))
        .collect()
}

#[test]
fn burst_reassembly_matches_under_loss_and_corruption_faults() {
    // The cells of a 40-frame burst that survive a seeded lossy and
    // corrupting path feed both reassemblers that exist — the owned one
    // (medusa, the session controller) and the slab one (every box);
    // they must deliver the same frames and count the same discards.
    let frame = |t: &mut Tape| {
        let len = t.gen_range(0..=300usize);
        noise(t, len)
    };
    let burst = |t: &mut Tape| (0..40).map(|_| frame(t)).collect::<Vec<_>>();
    for seed in SEEDS {
        check("burst_reassembly", seed, 1, burst, |frames| {
            let mut sim = Simulation::new();
            let (tx, rx, _stats, ctrl) = build_path_controlled(
                &sim.spawner(),
                "eq",
                &[HopConfig::clean(1_000_000_000)],
                seed,
            );
            ctrl.set_loss(0.05);
            ctrl.set_corruption(0.05);
            let mut all_cells = Vec::new();
            let mut seq = 0u32;
            for frame in frames {
                let cells = segment_to_cells(Vci(1), frame, seq);
                seq = seq.wrapping_add(cells.len() as u32);
                all_cells.extend(cells);
            }
            sim.spawn("send", async move {
                for cell in all_cells {
                    if tx.send(cell).await.is_err() {
                        return;
                    }
                }
            });
            let survivors: Rc<RefCell<Vec<Cell>>> = Rc::default();
            let sink = survivors.clone();
            sim.spawn("recv", async move {
                while let Ok(cell) = rx.recv().await {
                    sink.borrow_mut().push(cell);
                }
            });
            sim.run_until_idle();
            assert!(ctrl.injected_drops() > 0, "plan injected no loss");
            // Cell by cell, both deliver the same frame or none.
            let mut owned = Reassembler::new();
            let mut slab = SlabReassembler::new(ByteSlab::new(2, 1024));
            for cell in survivors.borrow().iter() {
                let frame = slab.push(cell.clone());
                let frame = frame.map(|(vci, frame)| (vci, frame.with(|b| b.to_vec())));
                assert_eq!(owned.push(cell.clone()), frame);
            }
            assert_eq!(owned.frames_ok(), slab.frames_ok());
            assert_eq!(owned.frames_discarded(), slab.frames_discarded());
            assert!(owned.frames_discarded() > 0, "nothing lost");
            assert_eq!(slab.alloc_failures(), 0);
        });
    }
}

#[test]
fn fast_mix_matches_scalar_oracle() {
    for seed in SEEDS {
        let mix = |t: &mut Tape| {
            let count = t.gen_range(0..=64usize);
            blocks(t, count)
        };
        check("fast_mix", seed, 20, mix, |blocks| {
            assert_eq!(mix_blocks(blocks.iter()), mix_blocks_scalar(blocks.iter()));
        });
    }
}

#[test]
fn q15_scaled_mix_is_deterministic_and_exact_on_exact_gains() {
    let mix = |blocks: &[Block], gains: &[Q15]| {
        mix_blocks_scaled(blocks.iter().zip(gains.iter().copied()))
    };
    let case = |t: &mut Tape| {
        let blocks = blocks(t, 8);
        let gains: Vec<Q15> = (0..8)
            .map(|_| Q15::from_raw(t.gen_range(0..=1u32 << 15) as i32))
            .collect();
        (blocks, gains)
    };
    for seed in SEEDS {
        check("q15_mix", seed, 1, case, |(blocks, gains)| {
            // Bit-identical on repeat evaluation (pure integer arithmetic).
            assert_eq!(mix(blocks, gains), mix(blocks, gains));
            // Unity gains reduce to the unscaled mixer exactly.
            let unity = vec![Q15::ONE; blocks.len()];
            assert_eq!(mix(blocks, &unity), mix_blocks(blocks.iter()));
        });
    }
}

#[test]
fn dpcm_slice_codec_matches_per_line_codec() {
    let agree = |pixels: &[u8], width: usize, what: &str| {
        let lines = pixels.len() / width;
        for mode in [LineMode::Raw, LineMode::Dpcm, LineMode::DpcmSub2] {
            let batched = compress_slice(pixels, width, mode);
            let per_line: Vec<u8> = pixels
                .chunks_exact(width)
                .flat_map(|row| compress_line(row, mode))
                .collect();
            assert_eq!(batched, per_line, "{what} {width}x{lines} {mode:?}");

            let slice_decoded = decompress_slice(&batched, width, lines);
            let mut line_decoded = Vec::with_capacity(width * lines);
            let mut off = 0;
            let mut ok = true;
            for _ in 0..lines {
                match decompress_line(&per_line[off..], width) {
                    Some(px) => {
                        let mode_here = LineMode::from_header(per_line[off]).expect("header");
                        off += pandora_video::dpcm::compressed_line_bytes(width, mode_here);
                        line_decoded.extend(px);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            let want = ok.then_some(line_decoded);
            assert_eq!(slice_decoded, want, "{what} {width}x{lines} {mode:?}");
        }
    };
    let slice = |t: &mut Tape| {
        let (width, lines) = (t.gen_range(1..=80usize), t.gen_range(1..=12usize));
        (width, noise(t, width * lines))
    };
    for seed in SEEDS {
        check("dpcm_slice", seed, 6, slice, |(width, pixels)| {
            agree(pixels, *width, "noise")
        });
    }
    // The slice encoder runs four rows in lock-step and the leftover rows
    // one at a time, pixel pairs then an odd tail: every line count
    // around two groups, widths either side of a pair and of a byte's
    // worth of pixels, on noise and on the rows that pin the predictor
    // to either rail or swing it between them.
    let sweep = |t: &mut Tape| noise(t, 257 * 9);
    check("dpcm_edges", SEEDS[0], 1, sweep, |noise| {
        for width in [1, 2, 3, 255, 256, 257] {
            for lines in 1..=9 {
                agree(&noise[..width * lines], width, "noise");
                agree(&vec![0; width * lines], width, "all 0");
                agree(&vec![255; width * lines], width, "all 255");
                let swing: Vec<u8> = (0..width * lines).map(|i| (i % 2 * 255) as u8).collect();
                agree(&swing, width, "0/255 pixels");
                let rows: Vec<u8> = (0..width * lines)
                    .map(|i| (i / width % 2 * 255) as u8)
                    .collect();
                agree(&rows, width, "0/255 rows");
            }
        }
    });
}
