//! `Cache` against a reference model.
//!
//! The reference is the straightforward layout the cache used to have:
//! one `Vec` of lines per set, LRU by access stamp, `swap_remove` on
//! eviction and invalidation. The real cache stores a dense set index
//! plus an arena of fixed-width ways, so its internal order differs;
//! every observable answer must not. Seeded operation sequences run at
//! 1-, 2- and 4-way toy geometries, small enough that sets fill, evict
//! and empty again constantly.

use cenju4_des::SplitMix64;
use cenju4_directory::NodeId;
use cenju4_protocol::{Addr, Cache, CacheState, Victim, BLOCK_BYTES};

#[derive(Clone, Debug)]
struct Line {
    key: u64,
    state: CacheState,
    stamp: u64,
    value: u64,
}

/// The per-set `Vec` LRU cache, kept here as the oracle.
struct Reference {
    sets: Vec<Vec<Line>>,
    assoc: usize,
    tick: u64,
}

impl Reference {
    fn new(capacity_bytes: u32, assoc: usize) -> Self {
        let lines = (capacity_bytes / BLOCK_BYTES) as usize;
        Reference {
            sets: vec![Vec::new(); lines / assoc],
            assoc,
            tick: 0,
        }
    }

    fn set_of(&self, addr: Addr) -> usize {
        let k = addr.key();
        let h = k ^ (k >> 21) ^ (k >> 43);
        (h as usize) % self.sets.len()
    }

    fn line(&self, addr: Addr) -> Option<&Line> {
        self.sets[self.set_of(addr)]
            .iter()
            .find(|l| l.key == addr.key())
    }

    fn line_mut(&mut self, addr: Addr) -> Option<&mut Line> {
        let s = self.set_of(addr);
        self.sets[s].iter_mut().find(|l| l.key == addr.key())
    }

    fn state(&self, addr: Addr) -> CacheState {
        self.line(addr).map_or(CacheState::Invalid, |l| l.state)
    }

    fn value(&self, addr: Addr) -> u64 {
        self.line(addr).map_or(0, |l| l.value)
    }

    fn touch(&mut self, addr: Addr) -> CacheState {
        self.tick += 1;
        let tick = self.tick;
        match self.line_mut(addr) {
            Some(l) => {
                l.stamp = tick;
                l.state
            }
            None => CacheState::Invalid,
        }
    }

    fn fill_value(&mut self, addr: Addr, state: CacheState, value: u64) -> Option<Victim> {
        self.tick += 1;
        let tick = self.tick;
        let s = self.set_of(addr);
        let assoc = self.assoc;
        let set = &mut self.sets[s];
        let victim = if set.len() == assoc {
            let (i, _) = set.iter().enumerate().min_by_key(|(_, l)| l.stamp).unwrap();
            let old = set.swap_remove(i);
            Some(Victim {
                addr: key_to_addr(old.key),
                dirty: old.state == CacheState::Modified,
                value: old.value,
            })
        } else {
            None
        };
        set.push(Line {
            key: addr.key(),
            state,
            stamp: tick,
            value,
        });
        victim
    }

    fn invalidate(&mut self, addr: Addr) -> CacheState {
        let s = self.set_of(addr);
        let set = &mut self.sets[s];
        match set.iter().position(|l| l.key == addr.key()) {
            Some(i) => set.swap_remove(i).state,
            None => CacheState::Invalid,
        }
    }

    fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn resident(&self) -> Vec<Addr> {
        self.sets
            .iter()
            .flat_map(|s| s.iter().map(|l| key_to_addr(l.key)))
            .collect()
    }
}

fn key_to_addr(key: u64) -> Addr {
    Addr::new(NodeId::new((key >> 32) as u16), key as u32)
}

const VALID: [CacheState; 4] = [
    CacheState::Modified,
    CacheState::Exclusive,
    CacheState::Shared,
    CacheState::SharedModified,
];

/// Runs `ops` seeded operations on both caches over a universe of
/// `universe` blocks spread across four homes, comparing every answer
/// and, after each operation, the whole observable state.
fn run(seed: u64, capacity_lines: u32, assoc: usize, universe: u32, ops: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut real = Cache::new(capacity_lines * BLOCK_BYTES, assoc);
    let mut model = Reference::new(capacity_lines * BLOCK_BYTES, assoc);
    let addrs: Vec<Addr> = (0..universe)
        .map(|i| Addr::new(NodeId::new((i % 4) as u16), i / 4))
        .collect();
    let ctx =
        |step: usize| format!("seed {seed:#x}, {capacity_lines} lines {assoc}-way, step {step}");
    for step in 0..ops {
        let a = addrs[rng.next_below(addrs.len() as u64) as usize];
        let present = model.state(a) != CacheState::Invalid;
        match rng.next_below(100) {
            // Fills dominate so sets overflow and evict.
            0..=39 if !present => {
                let state = VALID[rng.next_below(4) as usize];
                let value = rng.next_u64();
                assert_eq!(
                    real.fill_value(a, state, value),
                    model.fill_value(a, state, value),
                    "victim differs at {}",
                    ctx(step)
                );
            }
            0..=59 => assert_eq!(real.touch(a), model.touch(a), "touch at {}", ctx(step)),
            60..=79 => assert_eq!(
                real.invalidate(a),
                model.invalidate(a),
                "invalidate at {}",
                ctx(step)
            ),
            80..=88 if present => {
                let state = VALID[rng.next_below(4) as usize];
                real.set_state(a, state);
                model.line_mut(a).unwrap().state = state;
            }
            89..=97 if present => {
                let value = rng.next_u64();
                real.set_value(a, value);
                model.line_mut(a).unwrap().value = value;
            }
            98 | 99 => {
                real.clear();
                model.clear();
            }
            _ => {}
        }
        assert_eq!(
            real.occupancy(),
            model.occupancy(),
            "occupancy at {}",
            ctx(step)
        );
        let mut want = model.resident();
        let mut got = real.resident();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "resident set at {}", ctx(step));
        for &b in &addrs {
            assert_eq!(
                real.state(b),
                model.state(b),
                "state of {b} at {}",
                ctx(step)
            );
            assert_eq!(
                real.value(b),
                model.value(b),
                "value of {b} at {}",
                ctx(step)
            );
        }
    }
}

#[test]
fn direct_mapped_matches_reference() {
    for seed in 0..8 {
        run(0xC0FFEE + seed, 8, 1, 24, 2_000);
    }
}

#[test]
fn two_way_matches_reference() {
    for seed in 0..8 {
        run(0x2_0000 + seed, 8, 2, 24, 2_000);
    }
}

#[test]
fn four_way_matches_reference() {
    for seed in 0..8 {
        run(0x4_0000 + seed, 16, 4, 40, 2_000);
    }
}

/// One set holding every line: LRU order over the whole cache.
#[test]
fn fully_associative_matches_reference() {
    for seed in 0..4 {
        run(0xF0 + seed, 4, 4, 10, 2_000);
    }
}

#[test]
fn clear_then_refill_reuses_capacity() {
    let mut c = Cache::new(8 * BLOCK_BYTES, 2);
    let a = |i: u32| Addr::new(NodeId::new(0), i);
    for round in 0..3 {
        for i in 0..8 {
            c.fill_value(a(i + round), CacheState::Shared, u64::from(i));
        }
        assert!(c.occupancy() <= 8);
        c.clear();
        assert_eq!(c.occupancy(), 0);
        assert!(c.resident().is_empty());
        assert_eq!(c.state(a(round)), CacheState::Invalid);
    }
}
