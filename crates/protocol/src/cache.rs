//! The per-node secondary cache: MESI states over 128-byte lines.

use crate::addr::Addr;
use core::fmt;

/// State of a cache line: the paper's MESI states (`M^c`, `E^c`, `S^c`,
/// `I^c`) plus the Dragon protocol's shared-modified state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheState {
    /// Modified: sole valid copy, memory stale.
    Modified,
    /// Exclusive: sole copy, memory valid.
    Exclusive,
    /// Shared: one of possibly many copies, memory valid.
    Shared,
    /// Shared-modified (Dragon only): one of possibly many copies, held
    /// by the last writer. Memory is valid here — every Dragon store
    /// writes through the home — so the line is readable but further
    /// stores must go back through the home, and eviction is silent.
    SharedModified,
    /// Invalid (not cached).
    Invalid,
}

impl CacheState {
    /// Whether a load can be satisfied from this state.
    #[inline]
    pub fn readable(self) -> bool {
        !matches!(self, CacheState::Invalid)
    }

    /// Whether a store can be satisfied without any coherence action
    /// (Modified) or with a silent upgrade (Exclusive).
    #[inline]
    pub fn writable(self) -> bool {
        matches!(self, CacheState::Modified | CacheState::Exclusive)
    }
}

impl fmt::Display for CacheState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheState::Modified => "M",
            CacheState::Exclusive => "E",
            CacheState::Shared => "S",
            CacheState::SharedModified => "Sm",
            CacheState::Invalid => "I",
        })
    }
}

#[derive(Clone, Copy, Debug)]
struct Line {
    key: u64,
    state: CacheState,
    stamp: u64,
    value: u64,
}

/// Key of an empty way. Real keys pack a 16-bit home above a 32-bit
/// block, so they never reach it.
const FREE: u64 = u64::MAX;

/// Set-index entry of a set that has never held a line.
const UNTOUCHED: u32 = u32::MAX;

const EMPTY_WAY: Line = Line {
    key: FREE,
    state: CacheState::Invalid,
    stamp: 0,
    value: 0,
};

/// An eviction produced by a cache fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// The evicted block.
    pub addr: Addr,
    /// Whether the block was Modified and must be written back. Clean
    /// (Exclusive/Shared) victims are dropped silently — the paper's
    /// protocol only defines a writeback for `M^c` blocks, so the
    /// directory may keep stale sharers (harmless over-approximation).
    pub dirty: bool,
    /// The data the victim held (meaningful when `dirty`).
    pub value: u64,
}

/// A set-associative cache of 128-byte lines with LRU replacement.
///
/// Cenju-4 pairs each R10000 with a 1 MB secondary cache; the default
/// geometry is 1 MB / 128 B lines / 4-way (8192 lines, 2048 sets).
///
/// Storage is two flat vectors, so building and cloning a cache costs
/// two allocations whatever its geometry: a dense per-set index, and an
/// arena that holds `assoc` ways for each set that has ever been filled
/// (a way whose key is `FREE` is empty). Simulated workloads touch a
/// small share of the sets, and the model checker clones whole engines
/// at every branching state.
///
/// # Examples
///
/// ```
/// use cenju4_directory::NodeId;
/// use cenju4_protocol::{Addr, Cache, CacheState};
///
/// let mut c = Cache::new(1 << 20, 4);
/// let a = Addr::new(NodeId::new(0), 1);
/// assert_eq!(c.state(a), CacheState::Invalid);
/// assert!(c.fill(a, CacheState::Shared).is_none());
/// assert_eq!(c.state(a), CacheState::Shared);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    /// Per set: the arena slot of its ways, or `UNTOUCHED`.
    index: Vec<u32>,
    /// `assoc` consecutive ways per touched set.
    ways: Vec<Line>,
    assoc: usize,
    tick: u64,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with `assoc`-way sets.
    ///
    /// # Panics
    ///
    /// Panics unless the geometry divides evenly into at least one set.
    pub fn new(capacity_bytes: u32, assoc: usize) -> Self {
        assert!(assoc > 0);
        let lines = (capacity_bytes / crate::addr::BLOCK_BYTES) as usize;
        assert!(
            lines >= assoc && lines.is_multiple_of(assoc),
            "bad cache geometry"
        );
        let nsets = lines / assoc;
        Cache {
            index: vec![UNTOUCHED; nsets],
            ways: Vec::new(),
            assoc,
            tick: 0,
        }
    }

    /// Total capacity in lines.
    pub fn lines(&self) -> usize {
        self.index.len() * self.assoc
    }

    /// Drops every line (no writebacks — the power-loss reset of a
    /// quarantined node, not an orderly flush).
    pub fn clear(&mut self) {
        self.index.fill(UNTOUCHED);
        self.ways.clear();
    }

    /// Every block currently resident, in no particular order.
    pub fn resident(&self) -> Vec<Addr> {
        self.ways
            .iter()
            .filter(|l| l.key != FREE)
            .map(|l| key_to_addr(l.key))
            .collect()
    }

    fn set_of(&self, addr: Addr) -> usize {
        // Mix the home bits in so blocks of different homes spread out.
        let k = addr.key();
        let h = k ^ (k >> 21) ^ (k >> 43);
        (h as usize) % self.index.len()
    }

    /// The ways of `addr`'s set, empty if the set was never filled.
    fn set(&self, addr: Addr) -> &[Line] {
        match self.index[self.set_of(addr)] {
            UNTOUCHED => &[],
            slot => {
                let base = slot as usize * self.assoc;
                &self.ways[base..base + self.assoc]
            }
        }
    }

    fn set_mut(&mut self, addr: Addr) -> &mut [Line] {
        match self.index[self.set_of(addr)] {
            UNTOUCHED => &mut [],
            slot => {
                let base = slot as usize * self.assoc;
                &mut self.ways[base..base + self.assoc]
            }
        }
    }

    fn line(&self, addr: Addr) -> Option<&Line> {
        let key = addr.key();
        self.set(addr).iter().find(|l| l.key == key)
    }

    fn line_mut(&mut self, addr: Addr) -> Option<&mut Line> {
        let key = addr.key();
        self.set_mut(addr).iter_mut().find(|l| l.key == key)
    }

    /// The MESI state of `addr` (Invalid if absent). Does not touch LRU.
    pub fn state(&self, addr: Addr) -> CacheState {
        self.line(addr).map_or(CacheState::Invalid, |l| l.state)
    }

    /// Looks up `addr` for an access, updating LRU. Returns its state.
    pub fn touch(&mut self, addr: Addr) -> CacheState {
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

    /// Installs `addr` with `state` holding `value`, evicting the LRU
    /// line of a full set. Returns the victim if one had to be evicted.
    ///
    /// # Panics
    ///
    /// Panics if `state` is `Invalid` or the line is already present
    /// (use [`Cache::set_state`] for upgrades).
    pub fn fill_value(&mut self, addr: Addr, state: CacheState, value: u64) -> Option<Victim> {
        assert_ne!(state, CacheState::Invalid, "cannot fill Invalid");
        self.tick += 1;
        let tick = self.tick;
        let set_idx = self.set_of(addr);
        if self.index[set_idx] == UNTOUCHED {
            self.index[set_idx] = (self.ways.len() / self.assoc) as u32;
            self.ways.extend(std::iter::repeat_n(EMPTY_WAY, self.assoc));
        }
        let base = self.index[set_idx] as usize * self.assoc;
        let set = &mut self.ways[base..base + self.assoc];
        let key = addr.key();
        assert!(set.iter().all(|l| l.key != key), "line already present");
        let (way, victim) = match set.iter().position(|l| l.key == FREE) {
            Some(i) => (i, None),
            None => {
                // Stamps are unique (every fill and touch takes a fresh
                // tick), so the LRU way is unambiguous.
                let (i, old) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.stamp)
                    .expect("sets have at least one way");
                let victim = Victim {
                    addr: key_to_addr(old.key),
                    dirty: old.state == CacheState::Modified,
                    value: old.value,
                };
                (i, Some(victim))
            }
        };
        set[way] = Line {
            key,
            state,
            stamp: tick,
            value,
        };
        victim
    }

    /// Installs `addr` with `state` and a zero value (convenience).
    ///
    /// # Panics
    ///
    /// As [`Cache::fill_value`].
    pub fn fill(&mut self, addr: Addr, state: CacheState) -> Option<Victim> {
        self.fill_value(addr, state, 0)
    }

    /// The data held for `addr` (0 if absent).
    pub fn value(&self, addr: Addr) -> u64 {
        self.line(addr).map_or(0, |l| l.value)
    }

    /// Overwrites the data of a present line.
    ///
    /// # Panics
    ///
    /// Panics if the line is absent.
    pub fn set_value(&mut self, addr: Addr, value: u64) {
        self.line_mut(addr).expect("line absent").value = value;
    }

    /// Changes the state of a present line.
    ///
    /// # Panics
    ///
    /// Panics if the line is absent or `state` is `Invalid`
    /// (use [`Cache::invalidate`] to drop a line).
    pub fn set_state(&mut self, addr: Addr, state: CacheState) {
        assert_ne!(state, CacheState::Invalid, "use invalidate()");
        self.line_mut(addr).expect("line absent").state = state;
    }

    /// Drops `addr` from the cache if present. Returns the state it had.
    pub fn invalidate(&mut self, addr: Addr) -> CacheState {
        match self.line_mut(addr) {
            Some(l) => {
                let state = l.state;
                *l = EMPTY_WAY;
                state
            }
            None => CacheState::Invalid,
        }
    }

    /// Number of resident (non-invalid) lines.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|l| l.key != FREE).count()
    }
}

fn key_to_addr(key: u64) -> Addr {
    Addr::new(
        cenju4_directory::NodeId::new((key >> 32) as u16),
        key as u32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cenju4_directory::NodeId;

    fn addr(home: u16, block: u32) -> Addr {
        Addr::new(NodeId::new(home), block)
    }

    fn tiny() -> Cache {
        // 4 lines, 2-way: 2 sets.
        Cache::new(4 * 128, 2)
    }

    #[test]
    fn fill_and_state() {
        let mut c = tiny();
        let a = addr(0, 1);
        assert!(c.fill(a, CacheState::Exclusive).is_none());
        assert_eq!(c.state(a), CacheState::Exclusive);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn upgrade_states() {
        let mut c = tiny();
        let a = addr(0, 1);
        c.fill(a, CacheState::Shared);
        c.set_state(a, CacheState::Modified);
        assert_eq!(c.state(a), CacheState::Modified);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        let a = addr(0, 1);
        c.fill(a, CacheState::Modified);
        assert_eq!(c.invalidate(a), CacheState::Modified);
        assert_eq!(c.state(a), CacheState::Invalid);
        assert_eq!(c.invalidate(a), CacheState::Invalid);
    }

    #[test]
    fn lru_eviction_of_dirty_line_reports_writeback() {
        let mut c = Cache::new(2 * 128, 2); // one set, 2 ways
        let (a, b, d) = (addr(0, 0), addr(0, 1), addr(0, 2));
        c.fill(a, CacheState::Modified);
        c.fill(b, CacheState::Shared);
        c.touch(b); // make `a` the LRU line
        let v = c.fill(d, CacheState::Shared).expect("eviction");
        assert_eq!(v.addr, a);
        assert!(v.dirty);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = Cache::new(2 * 128, 2);
        c.fill(addr(0, 0), CacheState::Exclusive);
        c.fill(addr(0, 1), CacheState::Shared);
        c.touch(addr(0, 1));
        let v = c.fill(addr(0, 2), CacheState::Shared).expect("eviction");
        assert!(!v.dirty, "Exclusive (clean) victim needs no writeback");
    }

    #[test]
    fn touch_updates_lru() {
        let mut c = Cache::new(2 * 128, 2);
        let (a, b) = (addr(0, 0), addr(0, 1));
        c.fill(a, CacheState::Shared);
        c.fill(b, CacheState::Shared);
        c.touch(a); // b becomes LRU
        let v = c.fill(addr(0, 2), CacheState::Shared).unwrap();
        assert_eq!(v.addr, b);
    }

    #[test]
    fn readable_writable_classification() {
        assert!(CacheState::Shared.readable());
        assert!(!CacheState::Invalid.readable());
        assert!(CacheState::Modified.writable());
        assert!(CacheState::Exclusive.writable());
        assert!(!CacheState::Shared.writable());
    }

    #[test]
    fn different_homes_do_not_collide_logically() {
        let mut c = tiny();
        let a = addr(1, 7);
        let b = addr(2, 7);
        c.fill(a, CacheState::Shared);
        if c.state(b) == CacheState::Invalid {
            // Regardless of set placement, the keys must be distinct lines.
            let _ = c.fill(b, CacheState::Exclusive);
        }
        assert_eq!(c.state(a), CacheState::Shared);
    }

    #[test]
    fn default_geometry_is_1mb_4way() {
        let c = Cache::new(1 << 20, 4);
        assert_eq!(c.lines(), 8192);
    }
}
