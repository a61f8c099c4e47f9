//! Re-Reference Interval Prediction (RRIP) policies — Jaleel et al., ISCA'10.
//!
//! RRIP associates an M-bit Re-Reference Prediction Value (RRPV) with every
//! cache block; `0` means "expected to be re-referenced immediately",
//! `2^M - 1` means "expected in the distant future". The victim is a block
//! with the maximum RRPV (ageing every block until one reaches the maximum).
//!
//! * **SRRIP** inserts new blocks with a *long* re-reference prediction
//!   (`max - 1`) and promotes to `0` on a hit.
//! * **BRRIP** inserts at `max` most of the time and at `max - 1` with low
//!   probability, which resists thrashing.
//! * **DRRIP** set-duels SRRIP against BRRIP and uses the winner for follower
//!   sets. This is the paper's baseline ("RRIP", Sec. IV-C) and the substrate
//!   GRASP builds on.
//!
//! The reproduction uses a 3-bit RRPV (`max = 7`) exactly as the paper does.

use super::{PolicyRng, ReplacementPolicy};
use crate::request::AccessInfo;

/// Number of RRPV bits used throughout the reproduction (3, as in the paper).
pub const RRPV_BITS: u32 = 3;

/// Maximum (distant) RRPV value: `2^RRPV_BITS - 1 = 7`.
pub const RRPV_MAX: u8 = (1 << RRPV_BITS) - 1;

/// The "long re-reference" insertion value used by SRRIP: `RRPV_MAX - 1 = 6`.
pub const RRPV_LONG: u8 = RRPV_MAX - 1;

/// BRRIP inserts at `RRPV_LONG` once every `BRRIP_LONG_ONE_IN` fills,
/// otherwise at `RRPV_MAX` (the ISCA'10 paper uses 1/32).
pub const BRRIP_LONG_ONE_IN: u64 = 32;

/// Per-block RRPV storage shared by every RRIP-derived policy in this crate.
#[derive(Debug, Clone)]
pub struct RrpvArray {
    ways: usize,
    rrpv: Vec<u8>,
}

impl RrpvArray {
    /// Creates storage for `sets` × `ways` blocks, initialised to the distant
    /// value so empty ways look like immediate victims.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            ways,
            rrpv: vec![RRPV_MAX; sets * ways],
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Current RRPV of a block.
    #[inline]
    pub fn get(&self, set: usize, way: usize) -> u8 {
        self.rrpv[self.idx(set, way)]
    }

    /// Sets the RRPV of a block.
    #[inline]
    pub fn set(&mut self, set: usize, way: usize, value: u8) {
        debug_assert!(value <= RRPV_MAX);
        let idx = self.idx(set, way);
        self.rrpv[idx] = value;
    }

    /// The RRPVs of one set, by way.
    #[inline]
    pub(crate) fn of_set(&self, set: usize) -> &[u8] {
        &self.rrpv[self.idx(set, 0)..self.idx(set + 1, 0)]
    }

    /// Resets every RRPV to the distant value (the just-constructed state).
    pub fn reset(&mut self) {
        self.rrpv.fill(RRPV_MAX);
    }

    /// Lowest way of `set` currently at `RRPV_MAX`, scanned eight RRPVs at a
    /// time (used by policies that treat distant blocks as preferred
    /// victims).
    pub fn first_distant(&self, set: usize) -> Option<usize> {
        let slice = self.of_set(set);
        let pattern = crate::swar::broadcast(RRPV_MAX);
        let mut offset = 0;
        while offset + 8 <= slice.len() {
            let word = u64::from_le_bytes(slice[offset..offset + 8].try_into().expect("8 bytes"));
            let lanes = crate::swar::eq_byte_lanes(word, pattern);
            if lanes != 0 {
                return Some(offset + crate::swar::first_lane(lanes));
            }
            offset += 8;
        }
        slice[offset..]
            .iter()
            .position(|&v| v == RRPV_MAX)
            .map(|tail| offset + tail)
    }

    /// Decrements the RRPV of a block towards zero (gradual promotion).
    #[inline]
    pub fn decrement(&mut self, set: usize, way: usize) {
        let idx = self.idx(set, way);
        if self.rrpv[idx] > 0 {
            self.rrpv[idx] -= 1;
        }
    }

    /// Standard RRIP victim search: find a way with `RRPV_MAX`, ageing every
    /// block in the set until one reaches it. Ties break towards the lowest
    /// way index, as in the CRC reference implementation.
    ///
    /// Implemented without the reference loop's repeated scans. The common
    /// case — some block already at `RRPV_MAX` — is a SWAR scan over eight
    /// RRPVs per word. Otherwise, ageing until a block reaches `RRPV_MAX`
    /// adds exactly `RRPV_MAX - max` to every block and the winner is the
    /// first way that held the maximum, so one scalar pass plus one add
    /// replaces the repeated rescans.
    pub fn find_victim(&mut self, set: usize) -> usize {
        // Fast path: some block is already distant.
        if let Some(way) = self.first_distant(set) {
            return way;
        }

        // Slow path: age everything up to RRPV_MAX in one add.
        let base = self.idx(set, 0);
        let slice = &mut self.rrpv[base..base + self.ways];
        let mut max = 0u8;
        let mut victim = 0usize;
        for (way, &value) in slice.iter().enumerate() {
            if value > max {
                max = value;
                victim = way;
            }
        }
        let delta = RRPV_MAX - max;
        for value in slice.iter_mut() {
            *value += delta;
        }
        victim
    }
}

/// Set-dueling monitor (Qureshi et al.): a handful of leader sets are
/// dedicated to each competing policy and a saturating counter (PSEL) tracks
/// which one misses less; follower sets adopt the winner.
#[derive(Debug, Clone)]
pub struct SetDueling {
    sets: usize,
    /// Precomputed per-set role, so the per-fill lookups are an indexed load
    /// instead of two integer divisions.
    roles: Vec<Option<DuelWinner>>,
    psel: i32,
    psel_max: i32,
}

/// Which insertion policy a set should use according to the dueling monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DuelWinner {
    /// Use the SRRIP-style (long) insertion.
    Srrip,
    /// Use the BRRIP-style (distant, occasionally long) insertion.
    Brrip,
}

impl SetDueling {
    /// Creates a dueling monitor for `sets` sets with 32 leader sets per
    /// policy (or fewer for tiny caches) and a 10-bit PSEL counter.
    pub fn new(sets: usize) -> Self {
        // One leader pair every `stride` sets gives ~32 leaders per policy for
        // a 1024-set LLC and degrades gracefully for smaller caches.
        let leader_stride = (sets / 32).max(2);
        let roles = (0..sets.max(leader_stride))
            .map(|set| match set % leader_stride {
                0 => Some(DuelWinner::Srrip),
                1 => Some(DuelWinner::Brrip),
                _ => None,
            })
            .collect();
        Self {
            sets,
            roles,
            psel: 0,
            psel_max: 512,
        }
    }

    /// Returns the policy that the given set must *model* (leader sets) or
    /// `None` when it is a follower.
    #[inline]
    pub fn leader_policy(&self, set: usize) -> Option<DuelWinner> {
        self.roles[set]
    }

    /// The policy a follower set should use right now.
    pub fn winner(&self) -> DuelWinner {
        if self.psel >= 0 {
            DuelWinner::Srrip
        } else {
            DuelWinner::Brrip
        }
    }

    /// Effective insertion policy for a set (leader sets always model their
    /// assigned policy).
    pub fn policy_for_set(&self, set: usize) -> DuelWinner {
        self.leader_policy(set).unwrap_or_else(|| self.winner())
    }

    /// DRRIP's insertion value for a fill in `set`: `RRPV_LONG` where SRRIP
    /// rules, one BRRIP draw from `rng` where BRRIP does. Callers record the
    /// fill's miss themselves.
    #[inline]
    pub(crate) fn insertion(&self, set: usize, rng: &mut PolicyRng) -> u8 {
        match self.policy_for_set(set) {
            DuelWinner::Srrip => RRPV_LONG,
            DuelWinner::Brrip => brrip_insertion(rng),
        }
    }

    /// Records a miss in `set`; misses in a leader set vote against its
    /// policy.
    pub fn record_miss(&mut self, set: usize) {
        match self.leader_policy(set) {
            Some(DuelWinner::Srrip) => {
                self.psel = (self.psel - 1).max(-self.psel_max);
            }
            Some(DuelWinner::Brrip) => {
                self.psel = (self.psel + 1).min(self.psel_max);
            }
            None => {}
        }
    }

    /// Number of sets the monitor was built for.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Resets the PSEL counter to its neutral starting value.
    pub fn reset(&mut self) {
        self.psel = 0;
    }
}

/// BRRIP's insertion value: `RRPV_LONG` once every `BRRIP_LONG_ONE_IN`
/// fills, otherwise `RRPV_MAX`.
#[inline]
fn brrip_insertion(rng: &mut PolicyRng) -> u8 {
    if rng.one_in(BRRIP_LONG_ONE_IN) {
        RRPV_LONG
    } else {
        RRPV_MAX
    }
}

/// Static RRIP (SRRIP-HP): insert at `RRPV_LONG`, promote to 0 on hit.
#[derive(Debug, Clone)]
pub struct Srrip {
    rrpv: RrpvArray,
}

impl Srrip {
    /// Creates an SRRIP policy.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            rrpv: RrpvArray::new(sets, ways),
        }
    }
}

impl ReplacementPolicy for Srrip {
    fn name(&self) -> &'static str {
        "SRRIP"
    }

    fn choose_victim(&mut self, set: usize, _info: &AccessInfo) -> usize {
        self.rrpv.find_victim(set)
    }

    fn on_fill(&mut self, set: usize, way: usize, _info: &AccessInfo) {
        self.rrpv.set(set, way, RRPV_LONG);
    }

    fn on_hit(&mut self, set: usize, way: usize, _info: &AccessInfo) {
        self.rrpv.set(set, way, 0);
    }

    fn reset(&mut self) {
        self.rrpv.reset();
    }
}

/// Bimodal RRIP (BRRIP): insert at `RRPV_MAX` most of the time, `RRPV_LONG`
/// infrequently; promote to 0 on hit.
#[derive(Debug, Clone)]
pub struct Brrip {
    rrpv: RrpvArray,
    seed: u64,
    rng: PolicyRng,
}

impl Brrip {
    /// Creates a BRRIP policy.
    pub fn new(sets: usize, ways: usize, seed: u64) -> Self {
        Self {
            rrpv: RrpvArray::new(sets, ways),
            seed,
            rng: PolicyRng::new(seed),
        }
    }
}

impl ReplacementPolicy for Brrip {
    fn name(&self) -> &'static str {
        "BRRIP"
    }

    fn choose_victim(&mut self, set: usize, _info: &AccessInfo) -> usize {
        self.rrpv.find_victim(set)
    }

    fn on_fill(&mut self, set: usize, way: usize, _info: &AccessInfo) {
        self.rrpv.set(set, way, brrip_insertion(&mut self.rng));
    }

    fn on_hit(&mut self, set: usize, way: usize, _info: &AccessInfo) {
        self.rrpv.set(set, way, 0);
    }

    fn reset(&mut self) {
        self.rrpv.reset();
        self.rng = PolicyRng::new(self.seed);
    }
}

/// Dynamic RRIP (DRRIP): set-duels SRRIP against BRRIP. This is the scheme
/// the paper calls "RRIP" and uses as the baseline for Figs. 5–10.
#[derive(Debug, Clone)]
pub struct Drrip {
    rrpv: RrpvArray,
    dueling: SetDueling,
    seed: u64,
    rng: PolicyRng,
}

impl Drrip {
    /// Creates a DRRIP policy.
    pub fn new(sets: usize, ways: usize, seed: u64) -> Self {
        Self {
            rrpv: RrpvArray::new(sets, ways),
            dueling: SetDueling::new(sets),
            seed,
            rng: PolicyRng::new(seed),
        }
    }
}

impl ReplacementPolicy for Drrip {
    fn name(&self) -> &'static str {
        "RRIP"
    }

    fn choose_victim(&mut self, set: usize, _info: &AccessInfo) -> usize {
        self.rrpv.find_victim(set)
    }

    fn on_fill(&mut self, set: usize, way: usize, _info: &AccessInfo) {
        // A fill means the request missed: inform the dueling monitor.
        self.dueling.record_miss(set);
        let value = self.dueling.insertion(set, &mut self.rng);
        self.rrpv.set(set, way, value);
    }

    fn on_hit(&mut self, set: usize, way: usize, _info: &AccessInfo) {
        self.rrpv.set(set, way, 0);
    }

    fn reset(&mut self) {
        self.rrpv.reset();
        self.dueling.reset();
        self.rng = PolicyRng::new(self.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rrpv_array_victim_search_ages_blocks() {
        let mut rrpv = RrpvArray::new(1, 4);
        for way in 0..4 {
            rrpv.set(0, way, 2);
        }
        rrpv.set(0, 2, 5);
        // Victim search must age everyone until way 2 (the largest) reaches 7.
        let victim = rrpv.find_victim(0);
        assert_eq!(victim, 2);
        // Other blocks have aged by the same amount.
        assert_eq!(rrpv.get(0, 0), 4);
    }

    #[test]
    fn rrpv_decrement_saturates_at_zero() {
        let mut rrpv = RrpvArray::new(1, 1);
        rrpv.set(0, 0, 1);
        rrpv.decrement(0, 0);
        rrpv.decrement(0, 0);
        assert_eq!(rrpv.get(0, 0), 0);
    }

    #[test]
    fn srrip_inserts_long_and_promotes_on_hit() {
        let mut p = Srrip::new(2, 4);
        let info = AccessInfo::read(0);
        p.on_fill(0, 1, &info);
        assert_eq!(p.rrpv.get(0, 1), RRPV_LONG);
        p.on_hit(0, 1, &info);
        assert_eq!(p.rrpv.get(0, 1), 0);
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut p = Brrip::new(1, 1, 3);
        let info = AccessInfo::read(0);
        let mut distant = 0;
        let trials = 1000;
        for _ in 0..trials {
            p.on_fill(0, 0, &info);
            if p.rrpv.get(0, 0) == RRPV_MAX {
                distant += 1;
            }
        }
        let frac = distant as f64 / trials as f64;
        assert!(
            frac > 0.9,
            "BRRIP should insert distant most of the time ({frac})"
        );
        assert!(frac < 1.0, "BRRIP must occasionally insert long");
    }

    #[test]
    fn dueling_monitor_tracks_leader_misses() {
        let mut d = SetDueling::new(64);
        assert_eq!(d.winner(), DuelWinner::Srrip);
        // Pound the SRRIP leader sets with misses: BRRIP should win.
        for _ in 0..600 {
            d.record_miss(0); // set 0 is an SRRIP leader
        }
        assert_eq!(d.winner(), DuelWinner::Brrip);
        // Follower sets adopt the winner, leaders keep their identity.
        assert_eq!(d.policy_for_set(0), DuelWinner::Srrip);
        assert_eq!(d.policy_for_set(1), DuelWinner::Brrip);
        assert_eq!(d.policy_for_set(5), DuelWinner::Brrip);
    }

    #[test]
    fn dueling_counter_saturates() {
        let mut d = SetDueling::new(64);
        for _ in 0..10_000 {
            d.record_miss(1); // BRRIP leader -> votes for SRRIP
        }
        assert_eq!(d.winner(), DuelWinner::Srrip);
        for _ in 0..10_000 {
            d.record_miss(0);
        }
        assert_eq!(d.winner(), DuelWinner::Brrip);
    }

    #[test]
    fn drrip_uses_leader_policies() {
        let mut p = Drrip::new(64, 4, 1);
        let info = AccessInfo::read(0);
        // Fill in an SRRIP leader set: always long insertion.
        p.on_fill(0, 0, &info);
        assert_eq!(p.rrpv.get(0, 0), RRPV_LONG);
        // Fill repeatedly in a BRRIP leader set: mostly distant.
        let mut distant = 0;
        for _ in 0..200 {
            p.on_fill(1, 0, &info);
            if p.rrpv.get(1, 0) == RRPV_MAX {
                distant += 1;
            }
        }
        assert!(distant > 150);
    }
}
