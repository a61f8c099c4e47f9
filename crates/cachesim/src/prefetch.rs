//! A simple stride prefetcher (Table VI: "stride-based prefetchers with 16
//! streams" at the L1-D). The stream count and the confidence a stride
//! needs before it is predicted are constants: every hierarchy uses Table
//! VI's prefetcher, and both shape the recorded LLC stream.
//!
//! Each stream is keyed by the access site. When a site issues accesses with a
//! stable stride, the prefetcher predicts the next block. Streaming structures
//! of graph analytics (the Vertex and Edge arrays) exhibit unit strides and
//! benefit; the irregular Property Array accesses never establish a stable
//! stride and are left alone — exactly the behaviour the paper relies on when
//! it notes that prefetchers do not help the Property Array.

use crate::addr::Address;
use crate::request::AccessSite;

/// State of a single prefetch stream.
#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    site: AccessSite,
    last_addr: Address,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// Stream slots (Table VI).
const STREAMS: usize = 16;

/// Repeats of one stride a stream must see before it predicts.
const CONFIDENCE_THRESHOLD: u8 = 2;

/// Entries of the direct-mapped `site → slot` memo (a power of two).
const MEMO_ENTRIES: usize = 64;

/// A site-keyed stride prefetcher.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    streams: [Stream; STREAMS],
    /// Direct-mapped memo of the stream slot last resolved for a site,
    /// indexed by `site % MEMO_ENTRIES`. An entry is only trusted while the
    /// slot it names still holds a valid stream of that site, and valid
    /// streams have unique sites, so a trusted entry is exactly the slot the
    /// linear scan would find. Applications interleave a handful of sites,
    /// which makes consecutive accesses switch site almost every time; the
    /// memo keeps the stream lookup O(1) regardless.
    memo: [u8; MEMO_ENTRIES],
}

impl StridePrefetcher {
    /// Observes a demand access and returns the predicted next address when
    /// the stream has a confident, stable stride.
    #[inline]
    pub fn observe(&mut self, site: AccessSite, addr: Address) -> Option<Address> {
        let entry = usize::from(site) % MEMO_ENTRIES;
        let mut slot = usize::from(self.memo[entry]);
        match self.streams.get(slot) {
            Some(stream) if stream.valid && stream.site == site => {}
            _ => {
                slot = self.find_or_allocate(site);
                self.memo[entry] = slot as u8;
            }
        }
        self.observe_in_slot(slot, site, addr)
    }

    /// [`StridePrefetcher::observe`] without the memo: the reference the
    /// memoized lookup is tested against.
    #[cfg(test)]
    fn observe_linear(&mut self, site: AccessSite, addr: Address) -> Option<Address> {
        let slot = self.find_or_allocate(site);
        self.observe_in_slot(slot, site, addr)
    }

    #[inline]
    fn observe_in_slot(&mut self, slot: usize, site: AccessSite, addr: Address) -> Option<Address> {
        let stream = &mut self.streams[slot];
        if !stream.valid || stream.site != site {
            *stream = Stream {
                site,
                last_addr: addr,
                stride: 0,
                confidence: 0,
                valid: true,
            };
            return None;
        }
        let stride = addr as i64 - stream.last_addr as i64;
        if stride != 0 && stride == stream.stride {
            stream.confidence = stream.confidence.saturating_add(1);
        } else {
            stream.stride = stride;
            stream.confidence = 0;
        }
        stream.last_addr = addr;
        if stream.confidence >= CONFIDENCE_THRESHOLD && stream.stride != 0 {
            let next = addr as i64 + stream.stride;
            if next >= 0 {
                return Some(next as Address);
            }
        }
        None
    }

    fn find_or_allocate(&mut self, site: AccessSite) -> usize {
        if let Some(idx) = self.streams.iter().position(|s| s.valid && s.site == site) {
            return idx;
        }
        if let Some(idx) = self.streams.iter().position(|s| !s.valid) {
            return idx;
        }
        // Evict the stream with the lowest confidence.
        self.streams
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.confidence)
            .map(|(i, _)| i)
            .expect("streams is non-empty")
    }
}

impl Default for StridePrefetcher {
    /// A prefetcher with Table VI's 16 stream slots, all empty.
    fn default() -> Self {
        Self {
            streams: [Stream::default(); STREAMS],
            memo: [0; MEMO_ENTRIES],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_triggers_prefetch() {
        let mut p = StridePrefetcher::default();
        assert_eq!(p.observe(1, 0), None);
        assert_eq!(p.observe(1, 64), None);
        assert_eq!(p.observe(1, 128), None);
        // Confidence reached: predict the next block.
        assert_eq!(p.observe(1, 192), Some(256));
        assert_eq!(p.observe(1, 256), Some(320));
    }

    #[test]
    fn irregular_stream_never_prefetches() {
        let mut p = StridePrefetcher::default();
        let addrs = [0u64, 4096, 64, 8192, 128, 73, 9999];
        for &a in &addrs {
            assert_eq!(
                p.observe(2, a),
                None,
                "irregular accesses must not prefetch"
            );
        }
    }

    #[test]
    fn streams_are_independent_per_site() {
        let mut p = StridePrefetcher::default();
        for i in 0..4u64 {
            p.observe(1, i * 64);
            p.observe(2, i * 128);
        }
        assert_eq!(p.observe(1, 256), Some(320));
        assert_eq!(p.observe(2, 512), Some(640));
    }

    #[test]
    fn stream_eviction_when_full() {
        let mut p = StridePrefetcher::default();
        // Train one confident stream per slot.
        let sites = 1..=STREAMS as AccessSite;
        for i in 0..5u64 {
            for site in sites.clone() {
                p.observe(site, i * 64);
            }
        }
        // A seventeenth site steals the least-confident slot without
        // panicking, and the last-trained stream keeps predicting.
        let extra = STREAMS as AccessSite + 1;
        assert_eq!(p.observe(extra, 0), None);
        assert_eq!(p.observe(extra, 64), None);
        assert_eq!(p.observe(STREAMS as AccessSite, 5 * 64), Some(6 * 64));
    }

    #[test]
    fn memoized_lookup_matches_the_linear_scan_while_sites_thrash_the_table() {
        // 40 sites over 16 slots (and over 64 memo entries once sites pass
        // 64): streams are evicted and re-allocated constantly, memo entries
        // go stale and alias. Predictions and the slot every site occupies
        // must match the linear scan after every single access.
        let mut memoized = StridePrefetcher::default();
        let mut linear = StridePrefetcher::default();
        let mut predictions = 0;
        let mut touches = [0u64; 88];
        let mut x = 5u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mostly a rotating working set of strided sites, sometimes a
            // far site that aliases a memo entry.
            let site = match (x >> 60) as u16 {
                0..=11 => ((x >> 33) % 24) as AccessSite,
                12..=14 => 24 + ((x >> 33) % 16) as AccessSite,
                _ => 64 + ((x >> 33) % 24) as AccessSite,
            };
            touches[usize::from(site)] += 1;
            let addr = (u64::from(site) << 24) + touches[usize::from(site)] * 64;
            let got = memoized.observe(site, addr);
            assert_eq!(got, linear.observe_linear(site, addr), "access {i}");
            predictions += usize::from(got.is_some());
            let slots = |p: &StridePrefetcher| -> Vec<Option<AccessSite>> {
                p.streams
                    .iter()
                    .map(|s| s.valid.then_some(s.site))
                    .collect()
            };
            assert_eq!(slots(&memoized), slots(&linear), "evictions, access {i}");
        }
        assert!(predictions > 100, "streams must train ({predictions})");
    }

    #[test]
    fn a_memo_entry_naming_a_cleared_stream_is_not_trusted() {
        // On a fresh prefetcher every slot is a cleared stream whose site
        // field reads 0 and every memo entry names slot 0, so site 0's entry
        // matches on site alone: only `valid` tells it no stream is there.
        let mut p = StridePrefetcher::default();
        assert_eq!(p.observe(0, 64), None, "a new stream predicts nothing");
        assert!(
            p.streams[0].valid && !p.streams[1].valid,
            "the lowest free slot, as the scan allocates"
        );
        assert_eq!((p.streams[0].last_addr, p.streams[0].confidence), (64, 0));
    }

    #[test]
    fn negative_strides_work() {
        let mut p = StridePrefetcher::default();
        for i in (4..10u64).rev() {
            p.observe(5, i * 64);
        }
        let next = p.observe(5, 3 * 64);
        assert_eq!(next, Some(2 * 64));
    }
}
