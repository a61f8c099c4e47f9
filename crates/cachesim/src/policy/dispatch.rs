//! Static policy dispatch for the simulation hot path.
//!
//! [`PolicyDispatch`] is a closed enum over the ten built-in policies of the
//! evaluation, held by value so every hook inlines instead of paying a
//! virtual call. It is not itself a [`ReplacementPolicy`]: the one match over
//! its variants is `for_each_policy!`, which hands a generic body the
//! concrete policy, so a caller matches once per run or per request rather
//! than once per hook call.

use super::grasp::Grasp;
use super::hawkeye::Hawkeye;
use super::leeway::Leeway;
use super::lru::Lru;
use super::pin::PinX;
use super::random::RandomReplacement;
use super::rrip::{Brrip, Drrip, Srrip};
use super::ship::ShipMem;
use super::ReplacementPolicy;

/// One of the built-in replacement policies, held by value.
///
/// Every online policy of the paper's evaluation has a dedicated variant;
/// Belady's OPT is offline (a trace post-processor, see
/// [`crate::policy::opt`]) and therefore has no variant.
pub enum PolicyDispatch {
    /// Least Recently Used.
    Lru(Lru),
    /// Random replacement.
    Random(RandomReplacement),
    /// Static RRIP.
    Srrip(Srrip),
    /// Bimodal RRIP.
    Brrip(Brrip),
    /// Dynamic RRIP (the paper's baseline).
    Drrip(Drrip),
    /// SHiP-MEM.
    ShipMem(ShipMem),
    /// Hawkeye.
    Hawkeye(Hawkeye),
    /// Leeway.
    Leeway(Leeway),
    /// XMem-style pinning (PIN-X).
    Pin(PinX),
    /// GRASP and its ablations.
    Grasp(Grasp),
}

/// Expands `$body` once per [`PolicyDispatch`] variant with `$p` bound to the
/// concrete policy (by reference, as `$dispatch` is borrowed), so `$body` is
/// monomorphized per policy and whatever loop it contains runs without a
/// match inside.
macro_rules! for_each_policy {
    ($dispatch:expr, $p:ident => $body:expr) => {
        match $dispatch {
            $crate::policy::PolicyDispatch::Lru($p) => $body,
            $crate::policy::PolicyDispatch::Random($p) => $body,
            $crate::policy::PolicyDispatch::Srrip($p) => $body,
            $crate::policy::PolicyDispatch::Brrip($p) => $body,
            $crate::policy::PolicyDispatch::Drrip($p) => $body,
            $crate::policy::PolicyDispatch::ShipMem($p) => $body,
            $crate::policy::PolicyDispatch::Hawkeye($p) => $body,
            $crate::policy::PolicyDispatch::Leeway($p) => $body,
            $crate::policy::PolicyDispatch::Pin($p) => $body,
            $crate::policy::PolicyDispatch::Grasp($p) => $body,
        }
    };
}

pub(crate) use for_each_policy;

impl PolicyDispatch {
    /// See [`ReplacementPolicy::reads_hints`].
    pub fn reads_hints(&self) -> bool {
        for_each_policy!(self, p => p.reads_hints())
    }
}

impl std::fmt::Debug for PolicyDispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let policy = for_each_policy!(self, p => std::any::type_name_of_val(p));
        f.debug_tuple("PolicyDispatch").field(&policy).finish()
    }
}

/// Owning a concrete policy yields its dedicated variant.
macro_rules! impl_from_policy {
    ($($ty:ident => $variant:ident),* $(,)?) => {$(
        impl From<$ty> for PolicyDispatch {
            fn from(policy: $ty) -> Self {
                PolicyDispatch::$variant(policy)
            }
        }
    )*};
}

impl_from_policy! {
    Lru => Lru,
    RandomReplacement => Random,
    Srrip => Srrip,
    Brrip => Brrip,
    Drrip => Drrip,
    ShipMem => ShipMem,
    Hawkeye => Hawkeye,
    Leeway => Leeway,
    PinX => Pin,
    Grasp => Grasp,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_policies_take_the_static_path() {
        let d: PolicyDispatch = Lru::new(4, 4).into();
        assert!(matches!(d, PolicyDispatch::Lru(_)));
        let d: PolicyDispatch = Grasp::new(4, 4, 1).into();
        assert!(matches!(d, PolicyDispatch::Grasp(_)));
    }
}
