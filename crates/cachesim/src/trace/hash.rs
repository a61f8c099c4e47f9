//! The trace layer's two hashes: [`StripeHash`], the persisted format's
//! checksum, and [`Fnv64`], the hash of store keys, entry metadata and
//! digests (its docs say why there are two). Both digests are independent of
//! how a byte stream is split across `update` calls.

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;
const STRIPE: usize = 32;

/// Streaming XXH64 (seed 0): the checksum over header, context block and
/// chunk frames of a persisted trace. Four independent multiply-rotate lanes
/// consume the input in 32-byte stripes, several bytes per cycle, and a
/// 32-byte carry buffer holds a partial stripe between calls, so the writer
/// hashing frame by frame and the reader hashing each frame as it arrives
/// both get the reference XXH64 of the concatenated bytes.
#[derive(Debug, Clone)]
pub struct StripeHash {
    lanes: [u64; 4],
    carry: [u8; STRIPE],
    carried: usize,
    total: u64,
}

impl Default for StripeHash {
    fn default() -> Self {
        Self::new()
    }
}

#[inline(always)]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

#[inline(always)]
fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

impl StripeHash {
    /// Creates a hasher with nothing folded in.
    pub fn new() -> Self {
        Self {
            lanes: [
                PRIME_1.wrapping_add(PRIME_2),
                PRIME_2,
                0,
                PRIME_1.wrapping_neg(),
            ],
            carry: [0; STRIPE],
            carried: 0,
            total: 0,
        }
    }

    /// Runs the lanes over whole stripes.
    fn stripes(&mut self, bytes: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for stripe in bytes.chunks_exact(STRIPE) {
            a = round(a, word(stripe, 0));
            b = round(b, word(stripe, 8));
            c = round(c, word(stripe, 16));
            d = round(d, word(stripe, 24));
        }
        self.lanes = [a, b, c, d];
    }

    /// Folds `bytes` into the digest (split-independent).
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.carried > 0 {
            let take = (STRIPE - self.carried).min(bytes.len());
            self.carry[self.carried..self.carried + take].copy_from_slice(&bytes[..take]);
            self.carried += take;
            bytes = &bytes[take..];
            if self.carried < STRIPE {
                return;
            }
            let stripe = self.carry;
            self.stripes(&stripe);
            self.carried = 0;
        }
        let whole = bytes.len() - bytes.len() % STRIPE;
        self.stripes(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carried = rest.len();
    }

    /// The digest over everything folded in so far.
    pub fn finish(&self) -> u64 {
        let mut hash = if self.total >= STRIPE as u64 {
            let [a, b, c, d] = self.lanes;
            let mut hash = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            for lane in self.lanes {
                hash = (hash ^ round(0, lane))
                    .wrapping_mul(PRIME_1)
                    .wrapping_add(PRIME_4);
            }
            hash
        } else {
            PRIME_5
        };
        hash = hash.wrapping_add(self.total);
        let mut tail = &self.carry[..self.carried];
        while let Some((eight, rest)) = tail.split_first_chunk::<8>() {
            hash = (hash ^ round(0, u64::from_le_bytes(*eight)))
                .rotate_left(27)
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
            tail = rest;
        }
        if let Some((four, rest)) = tail.split_first_chunk::<4>() {
            hash = (hash ^ u64::from(u32::from_le_bytes(*four)).wrapping_mul(PRIME_1))
                .rotate_left(23)
                .wrapping_mul(PRIME_2)
                .wrapping_add(PRIME_3);
            tail = rest;
        }
        for &byte in tail {
            hash = (hash ^ u64::from(byte).wrapping_mul(PRIME_5))
                .rotate_left(11)
                .wrapping_mul(PRIME_1);
        }
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(PRIME_2);
        hash ^= hash >> 29;
        hash = hash.wrapping_mul(PRIME_3);
        hash ^ (hash >> 32)
    }

    /// One-shot digest of a byte slice.
    pub fn digest(bytes: &[u8]) -> u64 {
        let mut hasher = Self::new();
        hasher.update(bytes);
        hasher.finish()
    }
}

/// Byte-wise FNV-1a: the hash of trace-store keys and entry metadata
/// (`grasp_core::trace_store`) and of the benchmark's `sim_digest`.
///
/// It is not the trace format's checksum; [`StripeHash`] is. Two hashes
/// exist because the jobs differ. A checksum runs over megabytes of frames on
/// every load, where FNV-1a's one multiply chain per byte (about four cycles
/// a byte) was most of the cost. Keys and digests hash a few hundred bytes
/// into values that store file names and recorded digests pin: changing
/// their hash would orphan every store and baseline for no measurable gain.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Folds `bytes` into the digest (split-independent).
    pub fn update(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(Self::PRIME);
        }
        self.0 = hash;
    }

    /// The digest over everything folded in so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// One-shot digest of a byte slice.
    pub fn digest(bytes: &[u8]) -> u64 {
        let mut hasher = Self::new();
        hasher.update(bytes);
        hasher.finish()
    }
}
