//! Leeway: dead-block prediction based on Live Distance
//! (Faldu & Grot, PACT'17).
//!
//! Leeway tracks, for every cache block, the *live distance* — how long into
//! its residency (measured in fills observed by its set) the block kept
//! receiving hits. A predictor indexed by the loading PC (here: access site)
//! learns a per-site live distance; a resident block whose age exceeds its
//! site's predicted live distance is considered dead and becomes a preferred
//! victim.
//!
//! The defining property reproduced here is Leeway's *conservative,
//! variability-aware* update policy (the default reuse-oriented policy):
//! predictions grow immediately when a larger live distance is observed but
//! shrink only after several consecutive smaller observations. When block
//! behaviour within a site is irregular — as for graph analytics, where the
//! one gather site touches hot and cold vertices alike — the prediction stays
//! near the largest observed live distance, dead-block predictions become
//! rare, and Leeway degrades gracefully to its base policy (an SRRIP-style
//! scheme). That is exactly the behaviour the paper reports: small gains,
//! small losses, unlike SHiP and Hawkeye.
//!
//! Ages and live distances saturate at 255, so they are byte columns: a fill
//! ages its set with one saturating add over the set's slice, and the victim
//! search is a few lane operations per sixteen ways over the set's RRPV and
//! age columns and its gathered predictions — whether a block has outlived
//! its prediction is data the branch predictor cannot learn.

use super::rrip::{RrpvArray, SetDueling, RRPV_LONG};
use super::{sample_interval, PolicyRng, ReplacementPolicy};
use crate::lanes::{self, LaneOps, Lanes, LANES};
use crate::request::{AccessInfo, AccessSite};
use std::hint::select_unpredictable;

/// How many consecutive smaller observations it takes to shrink a predicted
/// live distance by one step (the "shrink slowly" half of the conservative
/// update).
const SHRINK_VOTES: u8 = 8;

/// Live distances are capped at this value (ages saturate here).
const LIVE_DISTANCE_CAP: u8 = u8::MAX;

/// Fixed seed of the dueling tie-breaker RNG (Leeway takes no seed
/// parameter).
const LEEWAY_SEED: u64 = 0x1EE7;

/// The Leeway replacement policy.
#[derive(Debug, Clone)]
pub struct Leeway {
    rrpv: RrpvArray,
    ways: usize,
    /// Age of each block: number of fills its set has seen since the block
    /// was last filled or hit, saturating at [`LIVE_DISTANCE_CAP`]. A byte
    /// column, so ageing a set is one saturating add over its slice; padded
    /// at the end so the last set's last 16-lane group stays in bounds.
    age: Vec<u8>,
    /// Largest age at which each block received a hit during its residency.
    observed_live: Vec<u8>,
    /// The site that loaded each block.
    loader: Vec<AccessSite>,
    /// Predictor: site → (predicted live distance, shrink votes).
    /// `AccessSite` is 16-bit, so the table is flat — a direct indexed load
    /// per check instead of a hash lookup, with no bounds check.
    predictor: Box<[(u8, u8); 1 << 16]>,
    /// Only a subset of sets trains the predictor, as in the original
    /// design (precomputed so the per-eviction check is an indexed load).
    sampled: Vec<bool>,
    /// Leeway's reuse-aware adaptive policies are modelled with the same
    /// set-dueling insertion as DRRIP, which keeps the scheme anchored to the
    /// paper's RRIP baseline.
    dueling: SetDueling,
    rng: PolicyRng,
}

impl Leeway {
    /// Creates a Leeway policy for a cache of `sets` × `ways`.
    pub fn new(sets: usize, ways: usize) -> Self {
        let interval = sample_interval(sets);
        Self {
            rrpv: RrpvArray::new(sets, ways),
            ways,
            age: vec![0; lanes::column_len(sets, ways)],
            observed_live: vec![0; sets * ways],
            loader: vec![0; lanes::column_len(sets, ways)],
            predictor: vec![(LIVE_DISTANCE_CAP, 0); 1 << 16]
                .try_into()
                .expect("one entry per site"),
            sampled: (0..sets).map(|set| set % interval == 0).collect(),
            dueling: SetDueling::new(sets),
            rng: PolicyRng::new(LEEWAY_SEED),
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// The per-block columns' index range of one set.
    #[inline]
    fn blocks_of(&self, set: usize) -> std::ops::Range<usize> {
        self.idx(set, 0)..self.idx(set + 1, 0)
    }

    #[inline]
    fn is_sampled(&self, set: usize) -> bool {
        self.sampled[set]
    }

    /// Conservative predictor update on eviction: grow immediately, shrink
    /// only after [`SHRINK_VOTES`] consecutive smaller observations.
    fn train(&mut self, site: AccessSite, observed: u8) {
        let entry = &mut self.predictor[usize::from(site)];
        if observed >= entry.0 {
            entry.0 = observed;
            entry.1 = 0;
        } else {
            entry.1 += 1;
            if entry.1 >= SHRINK_VOTES {
                // Shrink towards the observation rather than by a fixed step
                // so wildly stale predictions converge, but slowly.
                entry.0 = entry.0 - ((entry.0 - observed) / 4).max(1);
                entry.1 = 0;
            }
        }
    }

    /// Returns `true` when the block at (`set`, `way`) is predicted dead
    /// (the victim search inlines this check; kept for tests).
    #[cfg(test)]
    fn is_expired(&self, set: usize, way: usize) -> bool {
        let idx = self.idx(set, way);
        self.age[idx] > self.predictor[usize::from(self.loader[idx])].0
    }
}

impl ReplacementPolicy for Leeway {
    // Out of line on purpose, the one victim search replay's kernel calls:
    // forced inline, it costs Leeway ≈ 10 % per record on the `pipeline`
    // benchmark's streams at `Tiny`.
    #[inline(never)]
    fn choose_victim(&mut self, set: usize) -> usize {
        // Dead-block predictions only steer the choice among blocks the base
        // policy already considers near-eviction (RRPV >= long): this is the
        // reproduction of Leeway's variability-aware rate control, which keeps
        // the scheme anchored to its base policy when predictions are shaky.
        //
        // Lane operations per sixteen ways, no data-dependent branch: a
        // candidate competes with its age (at least 1, since it exceeds a
        // distance), every other block with 0, and the oldest candidate wins
        // — the lowest way among equals, within a group by the lowest lane
        // and across groups by the strict `>`. The predicted distances are
        // gathered with one scalar load per lane into a 16-byte group; lanes
        // past `ways` never expire.
        let base = self.idx(set, 0);
        let padded = self.ways.next_multiple_of(LANES);
        let rrpvs = self.rrpv.lanes_of(set).as_chunks::<LANES>().0;
        let ages = self.age[base..][..padded].as_chunks::<LANES>().0;
        let loaders = self.loader[base..][..padded].as_chunks::<LANES>().0;
        let (mut oldest, mut victim) = (0u8, 0usize);
        for (group, ((&rrpv, &age), loaders)) in rrpvs.iter().zip(ages).zip(loaders).enumerate() {
            let mut predicted = 0u128;
            for (lane, &loader) in loaders.iter().enumerate() {
                predicted |= u128::from(self.predictor[usize::from(loader)].0) << (8 * lane);
            }
            let predicted = predicted.to_le_bytes();
            let lane_index = core::array::from_fn(|lane| lane as u8);
            let inside = Lanes::gt([(self.ways - group * LANES) as u8; LANES], lane_index);
            let expired = Lanes::and(
                Lanes::ge(rrpv, [RRPV_LONG; LANES]),
                Lanes::gt(age, predicted),
            );
            let keys = Lanes::and(age, Lanes::and(expired, inside));
            let key = Lanes::max(keys);
            let way = group * LANES
                + Lanes::bits(Lanes::eq(keys, [key; LANES])).trailing_zeros() as usize;
            (oldest, victim) = select_unpredictable(key > oldest, (key, way), (oldest, victim));
        }
        if oldest > 0 {
            return victim;
        }
        self.rrpv.find_victim(set)
    }

    fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo) {
        let idx = self.idx(set, way);
        self.loader[idx] = info.site;
        self.observed_live[idx] = 0;
        self.dueling.record_miss(set);
        let value = self.dueling.insertion(set, &mut self.rng);
        self.rrpv.set(set, way, value);
        // One fill event ages every other block of the set.
        let set_blocks = self.blocks_of(set);
        for age in &mut self.age[set_blocks] {
            *age = age.saturating_add(1);
        }
        self.age[idx] = 0;
    }

    fn on_hit(&mut self, set: usize, way: usize, _info: &AccessInfo) {
        let idx = self.idx(set, way);
        self.observed_live[idx] = self.observed_live[idx].max(self.age[idx]);
        self.age[idx] = 0;
        self.rrpv.set(set, way, 0);
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        if self.is_sampled(set) {
            let idx = self.idx(set, way);
            let observed = self.observed_live[idx];
            let loader = self.loader[idx];
            self.train(loader, observed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::rrip::{DuelWinner, BRRIP_LONG_ONE_IN, RRPV_MAX};
    use proptest::prelude::*;

    fn req(addr: u64, site: AccessSite) -> AccessInfo {
        AccessInfo {
            site,
            ..AccessInfo::read(addr)
        }
    }

    /// The differential oracle: the per-access state as it was before the
    /// byte columns — `u16` ages capped by `min`, a per-way ageing loop, and
    /// a branching victim search.
    struct OracleLeeway {
        rrpv: RrpvArray,
        ways: usize,
        age: Vec<u16>,
        observed_live: Vec<u16>,
        loader: Vec<AccessSite>,
        predictor: Vec<(u16, u8)>,
        dueling: SetDueling,
        rng: PolicyRng,
    }

    impl OracleLeeway {
        fn new(sets: usize, ways: usize) -> Self {
            Self {
                rrpv: RrpvArray::new(sets, ways),
                ways,
                age: vec![0; sets * ways],
                observed_live: vec![0; sets * ways],
                loader: vec![0; sets * ways],
                predictor: vec![(255, 0); usize::from(u16::MAX) + 1],
                dueling: SetDueling::new(sets),
                rng: PolicyRng::new(LEEWAY_SEED),
            }
        }

        fn choose_victim(&mut self, set: usize) -> usize {
            let mut expired: Option<(u16, usize)> = None;
            for way in 0..self.ways {
                if self.rrpv.get(set, way) < RRPV_LONG {
                    continue;
                }
                let idx = set * self.ways + way;
                let age = self.age[idx];
                if age > self.predictor[usize::from(self.loader[idx])].0
                    && expired.is_none_or(|(oldest, _)| age > oldest)
                {
                    expired = Some((age, way));
                }
            }
            match expired {
                Some((_, way)) => way,
                None => self.rrpv.find_victim(set),
            }
        }

        fn on_fill(&mut self, set: usize, way: usize, site: AccessSite) {
            let idx = set * self.ways + way;
            self.loader[idx] = site;
            self.age[idx] = 0;
            self.observed_live[idx] = 0;
            self.dueling.record_miss(set);
            let value = match self.dueling.policy_for_set(set) {
                DuelWinner::Srrip => RRPV_LONG,
                DuelWinner::Brrip if self.rng.one_in(BRRIP_LONG_ONE_IN) => RRPV_LONG,
                DuelWinner::Brrip => RRPV_MAX,
            };
            self.rrpv.set(set, way, value);
            for other in (0..self.ways).filter(|&other| other != way) {
                let idx = set * self.ways + other;
                self.age[idx] = (self.age[idx] + 1).min(255);
            }
        }

        fn on_hit(&mut self, set: usize, way: usize) {
            let idx = set * self.ways + way;
            if self.age[idx] > self.observed_live[idx] {
                self.observed_live[idx] = self.age[idx];
            }
            self.age[idx] = 0;
            self.rrpv.set(set, way, 0);
        }

        /// Every set of the small test geometries is sampled.
        fn on_evict(&mut self, set: usize, way: usize) {
            let idx = set * self.ways + way;
            let observed = self.observed_live[idx];
            let entry = &mut self.predictor[usize::from(self.loader[idx])];
            if observed >= entry.0 {
                *entry = (observed, 0);
            } else {
                entry.1 += 1;
                if entry.1 >= SHRINK_VOTES {
                    *entry = (entry.0 - ((entry.0 - observed) / 4).max(1), 0);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Same victims, ages, live distances, predictions and RRPVs as the
        /// oracle on random fill / hit / evict sequences. Each case first
        /// fills one way over and over, which walks the ages of the others
        /// up to (and, past 255 fills, into) saturation.
        #[test]
        fn leeway_matches_the_oracle(
            case in (
                0usize..400,
                proptest::collection::vec((0u8..8, 0usize..64, 0u16..4), 200..900),
            )
        ) {
            const SETS: usize = 4;
            let widen = |column: &[u8]| column.iter().map(|&v| u16::from(v)).collect::<Vec<_>>();
            let (ageing_fills, ops) = case;
            for ways in [4usize, 12, 16, 17, 64] {
                let mut leeway = Leeway::new(SETS, ways);
                let mut oracle = OracleLeeway::new(SETS, ways);
                for _ in 0..ageing_fills {
                    leeway.on_fill(0, ways - 1, &req(0, 1));
                    oracle.on_fill(0, ways - 1, 1);
                }
                for &(op, pick, site) in &ops {
                    let (set, way) = (pick % SETS, pick / SETS % ways);
                    let info = req(0, site);
                    match op {
                        // A miss in a full set: evict the victim, fill it.
                        0..=3 => {
                            let victim = leeway.choose_victim(set);
                            prop_assert_eq!(victim, oracle.choose_victim(set));
                            leeway.on_evict(set, victim);
                            oracle.on_evict(set, victim);
                            leeway.on_fill(set, victim, &info);
                            oracle.on_fill(set, victim, site);
                        }
                        4..=6 => {
                            leeway.on_hit(set, way, &info);
                            oracle.on_hit(set, way);
                        }
                        // A fill of a way the cache found invalid.
                        _ => {
                            leeway.on_fill(set, way, &info);
                            oracle.on_fill(set, way, site);
                        }
                    }
                    prop_assert_eq!(widen(&leeway.age[..SETS * ways]), oracle.age.clone());
                    prop_assert_eq!(widen(&leeway.observed_live), oracle.observed_live.clone());
                    prop_assert_eq!(leeway.rrpv.of_set(set), oracle.rrpv.of_set(set));
                    for site in 0..4usize {
                        prop_assert_eq!(
                            u16::from(leeway.predictor[site].0),
                            oracle.predictor[site].0
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unseen_sites_are_never_predicted_dead() {
        let mut l = Leeway::new(1, 4);
        for way in 0..4 {
            l.on_fill(0, way, &req(way as u64 * 64, 9));
        }
        for way in 0..4 {
            assert!(!l.is_expired(0, way));
        }
        // With nothing expired, the victim follows the RRIP substrate (all
        // blocks at RRPV_LONG; ageing makes way 0 the victim).
        assert_eq!(l.choose_victim(0), 0);
        assert_eq!(l.predictor[9].0, LIVE_DISTANCE_CAP);
    }

    #[test]
    fn ages_track_set_fill_events() {
        let mut l = Leeway::new(1, 4);
        l.on_fill(0, 0, &req(0, 1));
        l.on_fill(0, 1, &req(64, 1));
        l.on_fill(0, 2, &req(128, 1));
        // Way 0 has seen two subsequent fills.
        assert_eq!(l.age[l.idx(0, 0)], 2);
        assert_eq!(l.age[l.idx(0, 2)], 0);
        // A hit resets the age and records the live distance.
        l.on_hit(0, 0, &req(0, 1));
        assert_eq!(l.age[l.idx(0, 0)], 0);
        assert_eq!(l.observed_live[l.idx(0, 0)], 2);
    }

    #[test]
    fn training_grows_fast_and_shrinks_slowly() {
        let mut l = Leeway::new(1, 8);
        // Take the prediction down from the cap with repeated small
        // observations, then grow it back instantly with one large one.
        for _ in 0..200 {
            l.train(5, 0);
        }
        let lowered = l.predictor[5].0;
        assert!(lowered < LIVE_DISTANCE_CAP);
        l.train(5, 40);
        assert_eq!(l.predictor[5].0, 40);
        // A single small observation does not shrink it.
        l.train(5, 0);
        assert_eq!(l.predictor[5].0, 40);
    }

    #[test]
    fn expired_blocks_are_preferred_victims() {
        let mut l = Leeway::new(1, 4);
        l.predictor[1] = (1, 0); // site 1: dead after one fill event
        l.predictor[2] = (LIVE_DISTANCE_CAP, 0);
        l.on_fill(0, 0, &req(0x00, 1));
        l.on_fill(0, 1, &req(0x40, 2));
        l.on_fill(0, 2, &req(0x80, 2));
        l.on_fill(0, 3, &req(0xC0, 2));
        // Way 0 has age 3 > predicted 1 -> expired.
        assert!(l.is_expired(0, 0));
        assert_eq!(l.choose_victim(0), 0);
    }

    #[test]
    fn hits_protect_blocks_from_expiry() {
        let mut l = Leeway::new(1, 4);
        l.predictor[1] = (2, 0);
        l.on_fill(0, 0, &req(0x00, 1));
        l.on_fill(0, 1, &req(0x40, 1));
        l.on_fill(0, 2, &req(0x80, 1));
        l.on_hit(0, 0, &req(0x00, 1)); // resets age
        l.on_fill(0, 3, &req(0xC0, 1));
        assert!(!l.is_expired(0, 0));
    }

    #[test]
    fn irregular_sites_degrade_to_the_base_policy() {
        // A site whose blocks sometimes see very late reuse keeps a large
        // predicted live distance, so victims come from the RRIP substrate —
        // the conservative behaviour the paper highlights.
        let mut l = Leeway::new(1, 4);
        l.train(7, 200);
        for _ in 0..20 {
            l.train(7, 0);
        }
        assert!(l.predictor[7].0 > 100);
    }

    #[test]
    fn eviction_trains_only_sampled_sets() {
        let mut l = Leeway::new(128, 4);
        // Set 1 is not sampled (sample interval is 2 for 128 sets): even
        // enough evictions to out-vote the conservative update leave the
        // prediction untouched.
        assert!(!l.is_sampled(1));
        for _ in 0..SHRINK_VOTES + 1 {
            l.on_fill(1, 0, &req(0, 3));
            l.on_evict(1, 0);
        }
        assert_eq!(l.predictor[3].0, LIVE_DISTANCE_CAP);
        // Set 0 is sampled: the same stream shrinks the prediction.
        for _ in 0..SHRINK_VOTES + 1 {
            l.on_fill(0, 0, &req(0, 3));
            l.on_evict(0, 0);
        }
        assert!(l.predictor[3].0 < LIVE_DISTANCE_CAP);
    }
}
