//! One seeded property harness for the workspace's tests.
//!
//! [`check`] draws case `i` of a property through a [`Tape`] from a stream
//! seeded by the property's name, a seed and `i`. A `Tape` is an [`Rng`]
//! that records every raw `next_u64`, so a generator keeps its `gen_range`
//! and `gen_bool` calls. A property fails by panicking; its failure is
//! shrunk on the tape, not on the value, so no type needs a shrinker: runs
//! of 8, 4, 2 and 1 draws are deleted, then each draw is set to zero or else
//! lowered by binary search, keeping each candidate that still fails, until
//! a round changes nothing or 10,000 candidates have run. A
//! replayed tape gives back its draws in order and 0 past its end. The final
//! panic names the test, seed and case and prints the shrunk value, its
//! panic and its tape, which [`replay`] turns into a regression test.

use std::cell::RefCell;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use rand::rngs::SmallRng;
pub use rand::Rng;
use rand::SeedableRng;

/// Candidates run while shrinking one failure.
const SHRINK_ATTEMPTS: usize = 10_000;

/// The draws of one case: recorded from its seeded stream, or replayed.
pub struct Tape {
    draws: Vec<u64>,
    read: usize,
    stream: Option<SmallRng>,
}

impl Tape {
    fn new(draws: &[u64], stream: Option<SmallRng>) -> Tape {
        let draws = draws.to_vec();
        Tape {
            draws,
            read: 0,
            stream,
        }
    }

    /// The draws the case read; reads past a replayed tape's end add none.
    fn used(mut self) -> Vec<u64> {
        self.draws.truncate(self.read);
        self.draws
    }
}

impl Rng for Tape {
    fn next_u64(&mut self) -> u64 {
        if let Some(stream) = &mut self.stream {
            self.draws.push(stream.next_u64());
        }
        self.read += 1;
        self.draws.get(self.read - 1).copied().unwrap_or(0)
    }
}

/// Case `case`'s stream: FNV-1a over `name` and `seed`, xored with `case`.
fn stream(name: &str, seed: u64, case: u64) -> SmallRng {
    let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    let tag = (name.bytes().chain(seed.to_le_bytes())).fold(0xcbf2_9ce4_8422_2325, fnv);
    SmallRng::seed_from_u64(tag ^ case)
}

thread_local! {
    /// While [`catch`] runs on this thread, the report of the last panic,
    /// which the hook keeps here instead of printing.
    static CAUGHT: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Runs `f`; a panic comes back as its report (place and message),
/// unprinted. Panics on other threads print as before.
fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let print = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let kept = CAUGHT.with(|c| c.borrow_mut().as_mut().map(|r| *r = info.to_string()));
            if kept.is_none() {
                print(info);
            }
        }));
    });
    let outer = CAUGHT.with(|c| c.replace(Some(String::new())));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    let report = CAUGHT.with(|c| c.replace(outer)).unwrap_or_default();
    result.map_err(|_| report)
}

/// Checks `property` on `cases` values drawn by `generate`, case `i` from
/// the stream of `(name, seed, i)`, and panics on the first that fails,
/// once it is shrunk, with a report that [`replay`] takes.
pub fn check<T: Debug>(
    name: &str,
    seed: u64,
    cases: u64,
    mut generate: impl FnMut(&mut Tape) -> T,
    mut property: impl FnMut(&T),
) {
    for case in 0..cases {
        let mut tape = Tape::new(&[], Some(stream(name, seed, case)));
        let value = generate(&mut tape);
        let Err(failure) = catch(|| property(&value)) else {
            continue;
        };
        let mut shrinker = Shrinker {
            best: (tape.used(), failure),
            attempts: 0,
            fails: &mut |draws| {
                let mut tape = Tape::new(draws, None);
                let value = catch(|| generate(&mut tape)).ok()?;
                let failure = catch(|| property(&value)).err()?;
                Some((tape.used(), failure))
            },
        };
        shrinker.shrink();
        let (attempts, (tape, failure)) = (shrinker.attempts, shrinker.best);
        let value = generate(&mut Tape::new(&tape, None));
        panic!(
            "property `{name}` failed at seed {seed:#x}, case {case}; \
             shrunk in {attempts} attempts to\n{value:?}\nwhich {failure}\n\
             replay it with pandora_prop::replay(&{tape:?}, generate, property)"
        );
    }
}

/// Runs `property` on the value `generate` draws from `tape`, a tape
/// [`check`]'s report printed: its failure panics here as it did there.
pub fn replay<T>(tape: &[u64], generate: impl FnOnce(&mut Tape) -> T, property: impl FnOnce(&T)) {
    property(&generate(&mut Tape::new(tape, None)));
}

/// A failing tape and its panic report.
type Failure = (Vec<u64>, String);

/// The smallest failure found so far, and the candidates run.
struct Shrinker<'a> {
    best: Failure,
    attempts: usize,
    /// Replays a candidate: the draws it used and its report, if it fails.
    fails: &'a mut dyn FnMut(&[u64]) -> Option<Failure>,
}

impl Shrinker<'_> {
    /// Runs `candidate`, and keeps it if it still fails.
    fn keep(&mut self, candidate: Vec<u64>) -> bool {
        if self.attempts == SHRINK_ATTEMPTS {
            return false;
        }
        self.attempts += 1;
        let shrunk = (self.fails)(&candidate);
        shrunk.map(|shrunk| self.best = shrunk).is_some()
    }

    fn shrink(&mut self) {
        while self.attempts < SHRINK_ATTEMPTS {
            let before = self.best.0.clone();
            for run in [8, 4, 2, 1] {
                let mut at = 0;
                while at + run <= self.best.0.len() {
                    let mut candidate = self.best.0.clone();
                    candidate.drain(at..at + run);
                    // A draw that counts the ones after it (a length) must
                    // fall with them.
                    let counted = at > 0 && candidate[at - 1] >= run as u64;
                    let deleted = self.keep(candidate.clone())
                        || (counted && {
                            candidate[at - 1] -= run as u64;
                            self.keep(candidate)
                        });
                    at += usize::from(!deleted);
                }
            }
            for at in 0..self.best.0.len() {
                // Zero first, then binary search: `best[at]` fails, and
                // every value below `low` that ran passed.
                let mut low = 0;
                while let Some(&high) = self.best.0.get(at).filter(|&&high| low < high) {
                    let to = if low == 0 { 0 } else { low + (high - low) / 2 };
                    let mut candidate = self.best.0.clone();
                    candidate[at] = to;
                    if !self.keep(candidate) {
                        low = to + 1;
                    }
                }
            }
            if self.best.0 == before {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(tape: &mut Tape) -> Vec<u8> {
        let len = tape.gen_range(0..64usize);
        (0..len).map(|_| tape.gen_range(0..=255u8)).collect()
    }

    #[test]
    fn the_same_seed_draws_the_same_cases() {
        let draw = |seed| {
            let mut seen = Vec::new();
            check("draw", seed, 100, bytes, |b| seen.push(b.clone()));
            seen
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn a_failure_shrinks_to_its_boundary_and_its_tape_replays() {
        let small = |b: &Vec<u8>| assert!(b.iter().all(|&x| x < 200), "{b:?} holds a big byte");
        let report = catch(|| check("shrink", 1, 100, bytes, small)).unwrap_err();
        assert!(report.contains("case 0; shrunk in"), "{report}");
        assert!(report.contains("to\n[200]\nwhich panicked at"), "{report}");
        let (_, tape) = report.split_once("replay(&[").unwrap();
        let tape = tape.split(']').next().unwrap().split(", ");
        let tape: Vec<u64> = tape.map(|draw| draw.parse().unwrap()).collect();
        let replayed = catch(|| replay(&tape, bytes, small)).unwrap_err();
        assert!(replayed.contains("[200] holds a big byte"), "{replayed}");
    }
}
