//! Static policy dispatch for the simulation hot path.
//!
//! [`crate::cache::SetAssocCache`] used to store its replacement policy as a
//! `Box<dyn ReplacementPolicy>`, paying an indirect call on every hit, fill
//! and eviction notification — by far the hottest edges of the simulator.
//! [`PolicyDispatch`] replaces that with a closed enum over every policy of
//! the evaluation, so the per-access calls compile down to a jump table over
//! inlined monomorphic bodies.
//!
//! The [`super::ReplacementPolicy`] trait remains the extension point:
//! policies outside the paper's roster can still be plugged in through the
//! [`PolicyDispatch::Dyn`] escape hatch (used by the cross-policy property
//! suite), which keeps exactly the old virtual-call behaviour.

use super::grasp::Grasp;
use super::hawkeye::Hawkeye;
use super::leeway::Leeway;
use super::lru::Lru;
use super::pin::PinX;
use super::random::RandomReplacement;
use super::rrip::{Brrip, Drrip, Srrip};
use super::ship::ShipMem;
use super::ReplacementPolicy;
use crate::request::AccessInfo;

/// A replacement policy with statically-dispatched per-access methods.
///
/// Every online policy of the paper's evaluation has a dedicated variant;
/// Belady's OPT is offline (a trace post-processor, see
/// [`crate::policy::opt`]) and therefore has no variant. Third-party
/// policies ride in [`PolicyDispatch::Dyn`].
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
    /// Escape hatch for policies outside the paper's roster; keeps the
    /// dynamic-dispatch behaviour of the trait object.
    Dyn(Box<dyn ReplacementPolicy>),
}

/// Forwards a method call to the concrete policy in each variant.
macro_rules! dispatch {
    ($self:expr, $policy:pat => $call:expr) => {
        match $self {
            PolicyDispatch::Lru($policy) => $call,
            PolicyDispatch::Random($policy) => $call,
            PolicyDispatch::Srrip($policy) => $call,
            PolicyDispatch::Brrip($policy) => $call,
            PolicyDispatch::Drrip($policy) => $call,
            PolicyDispatch::ShipMem($policy) => $call,
            PolicyDispatch::Hawkeye($policy) => $call,
            PolicyDispatch::Leeway($policy) => $call,
            PolicyDispatch::Pin($policy) => $call,
            PolicyDispatch::Grasp($policy) => $call,
            PolicyDispatch::Dyn($policy) => $call,
        }
    };
}

impl PolicyDispatch {
    /// Human-readable policy name used in reports.
    pub fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }

    /// See [`ReplacementPolicy::choose_victim`].
    #[inline]
    pub fn choose_victim(&mut self, set: usize, info: &AccessInfo) -> usize {
        dispatch!(self, p => p.choose_victim(set, info))
    }

    /// See [`ReplacementPolicy::on_fill`].
    #[inline]
    pub fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo) {
        dispatch!(self, p => p.on_fill(set, way, info))
    }

    /// See [`ReplacementPolicy::on_hit`].
    #[inline]
    pub fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo) {
        dispatch!(self, p => p.on_hit(set, way, info))
    }

    /// See [`ReplacementPolicy::on_evict`].
    #[inline]
    pub fn on_evict(&mut self, set: usize, way: usize, had_reuse: bool) {
        dispatch!(self, p => p.on_evict(set, way, had_reuse))
    }
}

/// The dispatcher is itself a policy, so generic code — notably the shared
/// per-access mutation path of `SetAssocCache`, which the batched replay
/// kernel monomorphizes per concrete policy — can also run against the full
/// dispatcher on the scalar path. Each method forwards to the inherent
/// statically-dispatched implementation above.
impl ReplacementPolicy for PolicyDispatch {
    fn name(&self) -> &'static str {
        PolicyDispatch::name(self)
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, info: &AccessInfo) -> usize {
        PolicyDispatch::choose_victim(self, set, info)
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo) {
        PolicyDispatch::on_fill(self, set, way, info)
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo) {
        PolicyDispatch::on_hit(self, set, way, info)
    }

    #[inline]
    fn on_evict(&mut self, set: usize, way: usize, had_reuse: bool) {
        PolicyDispatch::on_evict(self, set, way, had_reuse)
    }

    fn reads_hints(&self) -> bool {
        dispatch!(self, p => p.reads_hints())
    }
}

impl std::fmt::Debug for PolicyDispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PolicyDispatch").field(&self.name()).finish()
    }
}

/// Static-dispatch conversions: owning a concrete policy (boxed or not)
/// yields its dedicated variant, so existing `Box::new(Lru::new(..))` call
/// sites transparently gain the fast path.
macro_rules! impl_from_policy {
    ($($ty:ident => $variant:ident),* $(,)?) => {$(
        impl From<$ty> for PolicyDispatch {
            fn from(policy: $ty) -> Self {
                PolicyDispatch::$variant(policy)
            }
        }

        impl From<Box<$ty>> for PolicyDispatch {
            fn from(policy: Box<$ty>) -> Self {
                PolicyDispatch::$variant(*policy)
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

impl From<Box<dyn ReplacementPolicy>> for PolicyDispatch {
    fn from(policy: Box<dyn ReplacementPolicy>) -> Self {
        PolicyDispatch::Dyn(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_policies_take_the_static_path() {
        let d: PolicyDispatch = Lru::new(4, 4).into();
        assert!(matches!(d, PolicyDispatch::Lru(_)));
        assert_eq!(d.name(), "LRU");
        let d: PolicyDispatch = Box::new(Grasp::new(4, 4, 1)).into();
        assert!(matches!(d, PolicyDispatch::Grasp(_)));
    }

    #[test]
    fn trait_objects_take_the_dyn_path() {
        let boxed: Box<dyn ReplacementPolicy> = Box::new(Srrip::new(4, 4));
        let d: PolicyDispatch = boxed.into();
        assert!(matches!(d, PolicyDispatch::Dyn(_)));
        assert_eq!(d.name(), "SRRIP");
    }

    #[test]
    fn dispatch_forwards_calls() {
        let mut d: PolicyDispatch = Lru::new(1, 2).into();
        let info = AccessInfo::read(0);
        d.on_fill(0, 0, &info);
        d.on_fill(0, 1, &info);
        d.on_hit(0, 0, &info);
        assert_eq!(d.choose_victim(0, &info), 1);
    }
}
