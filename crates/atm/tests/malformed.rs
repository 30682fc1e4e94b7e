//! Malformed-input behaviour of the AAL layer (§3.8: "if an error
//! occurs … the general rule is that the current segment is thrown
//! away"). Reassembly must translate every corruption into discard
//! counters and keep running — never panic, never wedge a circuit.

mod model;

use model::{feed_both, Model};
use pandora_atm::{segment_to_cells, ByteSlab, Cell, SlabReassembler, Vci};
use pandora_prop::{check, replay, Rng, Tape};

/// Two regions of a box's default 64 KiB.
const REGIONS: usize = 2;
const REGION_BYTES: usize = 64 * 1024;

fn reassembler() -> SlabReassembler {
    SlabReassembler::new(ByteSlab::new(REGIONS, REGION_BYTES))
}

fn feed(r: &mut SlabReassembler, cells: impl IntoIterator<Item = Cell>) -> Vec<(Vci, Vec<u8>)> {
    let done = cells.into_iter().filter_map(|c| r.push(c));
    done.map(|(vci, frame)| (vci, frame.with(|b| b.to_vec())))
        .collect()
}

#[test]
fn truncated_burst_discards_both_frames_once() {
    // The tail of a burst — including the marked last cell — never
    // arrives; the next burst's cells run straight on. The sequence gap
    // poisons the merged frame, which is discarded at the next last-cell
    // marker, and the circuit then recovers.
    let f1 = vec![1u8; 150];
    let f2 = vec![2u8; 96];
    let mut c1 = segment_to_cells(Vci(5), &f1, 0);
    let n1 = c1.len() as u32;
    c1.truncate(c1.len() - 2); // lose the tail, with its `last` marker
    let c2 = segment_to_cells(Vci(5), &f2, n1);
    let mut r = reassembler();
    let done = feed(&mut r, c1.into_iter().chain(c2));
    assert!(done.is_empty(), "truncated frame delivered: {done:?}");
    assert_eq!(r.frames_ok(), 0);
    assert_eq!(r.frames_discarded(), 1);
    let f3 = vec![3u8; 48];
    let c3 = segment_to_cells(Vci(5), &f3, n1 + 2);
    let done = feed(&mut r, c3);
    assert_eq!(done, vec![(Vci(5), f3)], "circuit did not recover");
}

#[test]
fn reordered_cells_discard_frame_and_recover() {
    let frame = vec![9u8; 200];
    let mut cells = segment_to_cells(Vci(7), &frame, 40);
    cells.swap(1, 2);
    let mut r = reassembler();
    let done = feed(&mut r, cells);
    assert!(done.is_empty(), "reordered frame delivered");
    assert_eq!(r.frames_discarded(), 1);
    let next = segment_to_cells(Vci(7), &[4u8; 30], 45);
    assert_eq!(feed(&mut r, next).len(), 1, "circuit did not recover");
}

#[test]
fn duplicated_cell_discards_frame() {
    let frame = vec![6u8; 150];
    let mut cells = segment_to_cells(Vci(3), &frame, 0);
    cells.insert(1, cells[1].clone()); // the same cell delivered twice
    let mut r = reassembler();
    let done = feed(&mut r, cells);
    assert!(done.is_empty(), "duplicated cell slipped a frame through");
    assert_eq!(r.frames_discarded(), 1);
}

#[test]
fn colliding_vci_interleave_never_panics() {
    // Two senders erroneously share one VCI with independent counters —
    // a misconfigured switch table. Reassembly sees constant sequence
    // breaks; everything is discarded, nothing explodes, and the
    // receiver still tracks a single circuit.
    let fa = vec![1u8; 150];
    let fb = vec![2u8; 150];
    let ca = segment_to_cells(Vci(11), &fa, 0);
    let cb = segment_to_cells(Vci(11), &fb, 1_000);
    let mut r = reassembler();
    let mut done = Vec::new();
    for (a, b) in ca.into_iter().zip(cb) {
        done.extend(r.push(a));
        done.extend(r.push(b));
    }
    assert!(done.is_empty(), "interleaved collision delivered: {done:?}");
    assert!(r.frames_discarded() >= 2);
    assert_eq!(r.circuits(), 1);
}

#[test]
fn unmarked_cell_flood_is_refused_whole_and_circuit_recovers() {
    // A hostile (or broken) sender never marks a last cell: 10 000 full
    // cells, 480 000 bytes, on one VCI. The reassembler may not keep
    // them — a box's default slab region, 64 KiB, bounds a frame — so
    // when a mark finally comes it discards, and it delivers the intact
    // frame that follows.
    let mut flood = segment_to_cells(Vci(8), &vec![0xEE; 10_000 * 48], 0);
    let n = flood.len() as u32;
    assert_eq!(n, 10_000);
    flood.last_mut().expect("non-empty").last = false;
    let end = Cell::new(Vci(8), n, true, &[]);
    let next = vec![4u8; 100];
    let tail = segment_to_cells(Vci(8), &next, n + 1);
    let stream: Vec<Cell> = flood.into_iter().chain([end]).chain(tail).collect();

    let mut r = reassembler();
    let mut model = Model::new(REGIONS, REGION_BYTES);
    let done = feed_both(&mut r, &mut model, &stream);
    assert_eq!(done, vec![(Vci(8), next)]);
    assert_eq!((r.frames_ok(), r.frames_discarded()), (1, 1));

    // A region bounds a frame: 64 KiB passes, one byte more does not.
    for (len, delivered) in [(REGION_BYTES, 1), (REGION_BYTES + 1, 0)] {
        let cells = segment_to_cells(Vci(9), &vec![1u8; len], 0);
        let done = feed_both(&mut r, &mut model, &cells);
        assert_eq!(done.len(), delivered, "{len}");
    }
}

/// Sixty frames of 1–199 bytes over four circuits, then thirty random
/// drops, duplicates, swaps and truncations of their cells.
fn mutated_cells(rng: &mut Tape) -> Vec<Cell> {
    let mut cells: Vec<Cell> = Vec::new();
    let mut seq = 0u32;
    for i in 0..60u8 {
        let len = rng.gen_range(1..200usize);
        let frame = vec![i; len];
        let burst = segment_to_cells(Vci(u32::from(i % 4)), &frame, seq);
        seq = seq.wrapping_add(burst.len() as u32);
        cells.extend(burst);
    }
    for _ in 0..30 {
        if cells.len() < 4 {
            break;
        }
        let k = rng.gen_range(0..cells.len());
        match rng.gen_range(0..4u32) {
            0 => {
                cells.remove(k);
            }
            1 => {
                let c = cells[k].clone();
                cells.insert(k, c);
            }
            2 => {
                let j = rng.gen_range(0..cells.len());
                cells.swap(k, j);
            }
            _ => {
                cells.truncate(cells.len() - 1);
            }
        }
    }
    cells
}

/// Holds a two-region reassembler to the model over `cells`; returns it
/// after the assault.
fn reassemble_against_the_model(cells: &[Cell]) -> SlabReassembler {
    let mut r = reassembler();
    feed_both(&mut r, &mut Model::new(REGIONS, REGION_BYTES), cells);
    r
}

#[test]
fn seeded_mutation_fuzz_never_panics() {
    // Every outcome of a mutated cell stream lands in a counter, and the
    // reassembler delivers exactly the model's frames and counts exactly
    // its discards and refusals.
    let mut unmutated = 0;
    let name = "seeded_mutation_fuzz_never_panics";
    check(name, 0, 10_000, mutated_cells, |cells| {
        let mut r = reassemble_against_the_model(cells);
        unmutated += u64::from(r.frames_discarded() == 0);
        // The reassembler must still work after the assault.
        let clean = segment_to_cells(Vci(99), &[5u8; 100], 0);
        assert_eq!(feed(&mut r, clean).len(), 1, "wedged");
    });
    assert_eq!(unmutated, 0, "a case mutated nothing");
}

/// The sweep's case 11, shrunk: a swapped cell opens a frame on a circuit
/// that has seen nothing, so three frames are in progress at once and a
/// two-region slab refuses the third. That is the region bound: a slab
/// of `n` regions holds at most `n` frames in progress.
#[test]
fn a_two_region_slab_refuses_a_third_frame_in_progress() {
    #[rustfmt::skip]
    let tape = [
        3898567244341795309, 40298954477948832, 443644617830785178, 9107351178837648183,
        11380599304835550099, 10066140519346745594, 11928464586178898920, 8200003043245113865,
        6242547003419904081, 0, 5768432139579667494, 1686197201799782022,
        2659337191023669442, 172599310036171576, 3625697733893678500, 0,
        0, 8758818462297517939, 5517224517223003314, 14021465816550085446,
        3464914864953066358, 1880245279717829199, 10564394335039852866, 1122281757911597177,
        522592401384504979, 10728390756986686854, 1494333803955216051, 7472275672758400294,
        9618029192932692926, 16507018325914609540, 2592516930339945322, 2504566372915275587,
        5460445779381383966, 6117214836904653266, 134428699055163827, 3982232627594099445,
        872171060665510627, 0, 116511147157741409, 13338035241951009143,
        173096821984177545, 15832245110050256468, 2324940686929155593, 4556508452349002041,
        9301548438429477588, 4171815694619036812, 11069802184351976391, 5462455806139688163,
        5526924523977218768, 2134207517126794152, 0, 0,
        0, 9069661827281773565, 0, 6679393073758667906,
        0, 1952057524601862822, 157414408616952237, 1613724815160392389,
        0, 5070308880008363686, 3183277695518992374, 84974303541159,
        0, 0, 1012146371426348353, 0,
        821673945082347673, 0, 3526221799811762381, 0,
        4328082934489780005, 0, 3653761580624460489, 0,
        0, 23998,
    ];
    replay(&tape, mutated_cells, |cells| {
        let r = reassemble_against_the_model(cells);
        assert!(r.alloc_failures() > 0, "no frame was refused");
    });
}
