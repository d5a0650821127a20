//! The three workloads: seeded draws of circuit parameters from the in-tree
//! generators, serialized to AIGER bytes, each with its ground truth.
//!
//! A workload's *deck* is the instance list one run cycles through. It is
//! stratified: every (family, size) cell appears `reps` times, and the seed
//! draws each copy's secondary parameters (unguarded FIFO capacity within a
//! band of four, ring-pair offset, redundant-ring length, copy and guard
//! counts) and the order of the instances. The size of a cell is the
//! parameter that sets its difficulty (parity length, FIFO capacity,
//! counter width, ...), so stratifying it keeps the mix of easy and hard
//! cases the same from seed to seed, and the verdict-time percentiles do not
//! jump between clusters when the seed changes. Parameters whose effect on
//! difficulty is erratic (a guarded FIFO's capacity, a saturating counter's
//! saturation point) are not drawn at all.

use plic3::Config;
use plic3_aig::Aig;
use plic3_bench::ic3_workloads::{guarded_counter, redundant_rings, redundant_unsafe_counter};
use plic3_benchmarks::families::{arbiter, counters, fifo, gray, rings, shift};
use plic3_logic::SplitMix64;

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Generalization-bound circuits under the four IC3 configurations.
    GenHeavy,
    /// Easy lemmas, deep frame sequences, same four configurations.
    DeepFrames,
    /// Redundant and unsafe circuits: prep, then a BMC + IC3 race.
    PrepRace,
}

/// One of the paper's four IC3 configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ic3Config {
    Ic3ref,
    Ic3refPl,
    Ric3,
    Ric3Pl,
}

/// What a case-run hands the instance to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// A single-threaded IC3 engine.
    Ic3(Ic3Config),
    /// A two-worker portfolio race: BMC against IC3ref-pl.
    Race,
}

/// Every IC3 configuration, in report order.
pub const IC3_CONFIGS: [Ic3Config; 4] = [
    Ic3Config::Ic3ref,
    Ic3Config::Ic3refPl,
    Ic3Config::Ric3,
    Ic3Config::Ric3Pl,
];

impl Ic3Config {
    pub fn label(self) -> &'static str {
        match self {
            Ic3Config::Ic3ref => "ic3ref",
            Ic3Config::Ic3refPl => "ic3ref-pl",
            Ic3Config::Ric3 => "ric3",
            Ic3Config::Ric3Pl => "ric3-pl",
        }
    }

    pub fn config(self) -> Config {
        match self {
            Ic3Config::Ic3ref => Config::ic3ref_like(),
            Ic3Config::Ic3refPl => Config::ic3ref_like().with_lemma_prediction(true),
            Ic3Config::Ric3 => Config::ric3_like(),
            Ic3Config::Ric3Pl => Config::ric3_like().with_lemma_prediction(true),
        }
    }

    pub fn predicts(self) -> bool {
        matches!(self, Ic3Config::Ic3refPl | Ic3Config::Ric3Pl)
    }
}

impl Engine {
    pub fn label(self) -> &'static str {
        match self {
            Engine::Ic3(config) => config.label(),
            Engine::Race => "race",
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::GenHeavy, Workload::DeepFrames, Workload::PrepRace];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GenHeavy => "gen-heavy",
            Workload::DeepFrames => "deep-frames",
            Workload::PrepRace => "prep-race",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The engines every instance of the deck is run under, in order.
    pub fn engines(self) -> Vec<Engine> {
        match self {
            Workload::GenHeavy | Workload::DeepFrames => {
                IC3_CONFIGS.into_iter().map(Engine::Ic3).collect()
            }
            Workload::PrepRace => vec![Engine::Race],
        }
    }

    /// Copies of each (family, size) cell in a full deck.
    fn reps(self) -> usize {
        match self {
            Workload::GenHeavy => 1,
            Workload::DeepFrames => 1,
            Workload::PrepRace => 4,
        }
    }

    fn families(self) -> &'static [Family] {
        match self {
            Workload::GenHeavy => &GEN_HEAVY,
            Workload::DeepFrames => &DEEP_FRAMES,
            Workload::PrepRace => &PREP_RACE,
        }
    }
}

/// One benchmark instance: the circuit as AIGER bytes plus its ground truth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance {
    pub name: String,
    pub safe: bool,
    pub aiger: Vec<u8>,
}

impl Instance {
    fn new(name: String, safe: bool, aig: Aig) -> Self {
        Instance {
            name,
            safe,
            aiger: aig.to_binary(),
        }
    }
}

/// A circuit family: the stratified sizes and the seeded draw of one instance
/// of a given size.
struct Family {
    sizes: &'static [usize],
    draw: fn(usize, &mut Draw) -> Instance,
}

/// The seeded draw of one copy's secondary parameters. Copy `rep` of `reps`
/// of a cell draws from the `rep`-th of `reps` equal strata of each range,
/// so the copies of a cell cover the range evenly whatever the seed.
struct Draw<'a> {
    rng: &'a mut SplitMix64,
    rep: u64,
    reps: u64,
}

impl Draw<'_> {
    /// A value in `lo..hi`, from this copy's stratum.
    fn pick(&mut self, lo: u64, hi: u64) -> u64 {
        let width = hi - lo;
        let start = lo + width * self.rep / self.reps;
        let end = (lo + width * (self.rep + 1) / self.reps).max(start + 1);
        self.rng.range(start, end)
    }
}

const GEN_HEAVY: [Family; 3] = [
    Family {
        sizes: &[7, 8, 9],
        draw: |n, _| {
            Instance::new(
                format!("parity_safe_{n}"),
                true,
                shift::parity_shift_register(n),
            )
        },
    },
    Family {
        sizes: &[36, 40, 48, 72, 80, 96],
        draw: |cap, _| {
            let bits = fifo_bits(cap as u64);
            Instance::new(
                format!("fifo_guarded_safe_{bits}_{cap}"),
                true,
                fifo::fifo_guarded(bits, cap as u64),
            )
        },
    },
    Family {
        sizes: &[12, 16, 20, 24, 28, 32, 36],
        draw: |size, draw| {
            let cap = draw.pick(size as u64, size as u64 + 4);
            let bits = fifo_bits(cap);
            Instance::new(
                format!("fifo_unguarded_unsafe_{bits}_{cap}"),
                false,
                fifo::fifo_unguarded(bits, cap),
            )
        },
    },
];

const DEEP_FRAMES: [Family; 4] = [
    Family {
        sizes: &[8, 10, 12],
        draw: |bits, _| Instance::new(format!("gray_safe_{bits}"), true, gray::gray_safe(bits)),
    },
    Family {
        sizes: &[16, 22, 28],
        draw: |n, _| Instance::new(format!("arbiter_safe_{n}"), true, arbiter::round_robin(n)),
    },
    Family {
        sizes: &[10, 13, 16],
        draw: |bits, _| {
            let max = (1u64 << bits) - 1;
            Instance::new(
                format!("counter_sat_safe_{bits}"),
                true,
                counters::saturating_counter(bits, max - 2, max),
            )
        },
    },
    Family {
        sizes: &[9, 13, 17],
        draw: |n, draw| {
            // The offset moves the time to a verdict several-fold; drawing
            // from the middle third keeps the seeds' decks comparable.
            let offset = draw.pick(n as u64 / 3, (n - n / 3) as u64) as usize;
            Instance::new(
                format!("ring_pair_safe_{n}_{offset}"),
                true,
                rings::two_rings(n, offset),
            )
        },
    },
];

const PREP_RACE: [Family; 4] = [
    Family {
        sizes: &[2, 3, 4, 5, 6],
        draw: |copies, draw| {
            let cells = draw.pick(10, 20) as usize;
            Instance::new(
                format!("redundant_rings_safe_{copies}_{cells}"),
                true,
                redundant_rings(copies, cells),
            )
        },
    },
    Family {
        sizes: &[5, 6, 7, 8, 9],
        draw: |bits, draw| {
            let guards = draw.pick(2, 9) as usize;
            Instance::new(
                format!("guarded_counter_safe_{bits}_{guards}"),
                true,
                guarded_counter(bits, guards),
            )
        },
    },
    Family {
        sizes: &[4, 5, 6, 7, 8],
        draw: |bits, draw| {
            let copies = draw.pick(2, 5) as usize;
            Instance::new(
                format!("redundant_counter_unsafe_{copies}_{bits}"),
                false,
                redundant_unsafe_counter(copies, bits),
            )
        },
    },
    Family {
        sizes: &[10, 40, 44, 48, 52],
        draw: |size, draw| {
            let cap = draw.pick(size as u64, size as u64 + 4);
            let bits = fifo_bits(cap);
            Instance::new(
                format!("fifo_unguarded_unsafe_{bits}_{cap}"),
                false,
                fifo::fifo_unguarded(bits, cap),
            )
        },
    },
];

/// The narrowest FIFO counter that holds `cap + 1`. (A wider counter can
/// triple the time to a verdict at the same capacity, so it is not drawn.)
fn fifo_bits(cap: u64) -> usize {
    (u64::BITS - (cap + 1).leading_zeros()) as usize
}

/// The full deck of `workload` for `seed`.
pub fn deck(workload: Workload, seed: u64) -> Vec<Instance> {
    draw_deck(workload, seed, workload.reps(), usize::MAX)
}

/// A reduced deck for self-tests: one copy of each family's smallest size.
#[cfg(test)]
pub fn reduced_deck(workload: Workload, seed: u64) -> Vec<Instance> {
    draw_deck(workload, seed, 1, 1)
}

/// Draws `reps` rounds; each round holds every (family, size) cell once (only
/// the first `max_sizes` sizes of each family), in a seeded order.
fn draw_deck(workload: Workload, seed: u64, reps: usize, max_sizes: usize) -> Vec<Instance> {
    let mut rng = SplitMix64::new(seed ^ workload_salt(workload));
    let mut deck = Vec::new();
    for rep in 0..reps {
        let mut round: Vec<Instance> = workload
            .families()
            .iter()
            .flat_map(|family| {
                family.sizes[..family.sizes.len().min(max_sizes)]
                    .iter()
                    .map(move |&size| (family, size))
            })
            .map(|(family, size)| {
                let mut draw = Draw {
                    rng: &mut rng,
                    rep: rep as u64,
                    reps: reps as u64,
                };
                (family.draw)(size, &mut draw)
            })
            .collect();
        // Fisher-Yates: a seeded order within the round.
        for i in (1..round.len()).rev() {
            round.swap(i, rng.below(i as u64 + 1) as usize);
        }
        deck.extend(round);
    }
    deck
}

/// Decorrelates the workloads' draws for one seed.
fn workload_salt(workload: Workload) -> u64 {
    match workload {
        Workload::GenHeavy => 0x6765_6e2d_6865_6176,
        Workload::DeepFrames => 0x6465_6570_2d66_726d,
        Workload::PrepRace => 0x7072_6570_2d72_6163,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_aig::parse_aiger;

    #[test]
    fn same_seed_gives_the_same_instance_list() {
        for workload in Workload::ALL {
            assert_eq!(deck(workload, 7), deck(workload, 7));
            assert_ne!(deck(workload, 7), deck(workload, 8));
        }
    }

    #[test]
    fn every_instance_parses_back() {
        for workload in Workload::ALL {
            for instance in deck(workload, 3) {
                let aig = parse_aiger(&instance.aiger).expect("generated AIGER parses");
                assert!(aig.validate().is_ok(), "{}", instance.name);
            }
        }
    }

    #[test]
    fn decks_are_stratified() {
        for workload in Workload::ALL {
            let cells: usize = workload.families().iter().map(|f| f.sizes.len()).sum();
            assert_eq!(deck(workload, 11).len(), cells * workload.reps());
            assert_eq!(reduced_deck(workload, 11).len(), workload.families().len());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
