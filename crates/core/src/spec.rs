//! The serializable campaign request: one type shared by the library
//! builder and the service wire protocol.
//!
//! A [`CampaignSpec`] is the declarative content of a [`Campaign`] —
//! datasets, techniques, apps, policies, scale, trace-store path, thread
//! budget — with hand-rolled JSON encode/decode over [`crate::json`] (the
//! workspace has no serialization crate). The scale fixes the simulated
//! hierarchy ([`Scale::hierarchy`]); no field overrides it. The contract:
//!
//! * A [`Campaign`] *holds* its spec: the builder methods write it and
//!   [`Campaign::from_spec`] adopts one, so a client serializes the spec
//!   it would build a campaign from and submits it to the service daemon
//!   (`grasp-serve`) — and the daemon reconstructs the same campaign.
//! * [`CampaignSpec::cells`] is the **single definition of the grid**:
//!   [`Campaign::cells`] delegates here, so a library run and a service run
//!   of the same spec provably walk identical cells in identical order.
//! * The spec's `store` field is how a campaign is given a trace store: no
//!   environment variable stands in for a field the spec leaves unset (see
//!   `docs/configuration.md`).
//!
//! Wire vocabulary: datasets use their store slugs (`tw`, `g<hash:016x>`),
//! techniques/apps/policies their paper labels (`DBG`, `PR`, `RRIP`; any
//! pin fraction is spelled `PIN-<n>`), scale a lowercase slug.
//!
//! [`Campaign`]: crate::campaign::Campaign
//! [`Campaign::from_spec`]: crate::campaign::Campaign::from_spec
//! [`Campaign::cells`]: crate::campaign::Campaign::cells

use crate::campaign::CampaignCell;
use crate::datasets::{DatasetId, Scale};
use crate::error::Error;
use crate::json::{self, Json};
use crate::policy::PolicyKind;
use grasp_analytics::apps::AppKind;
use grasp_reorder::TechniqueKind;
use std::collections::BTreeMap;

/// A serializable experiment-grid request: the fields the
/// [`Campaign`](crate::campaign::Campaign) builder methods set. See the
/// module docs for the wire vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Scale synthetic datasets are generated at, and whose
    /// [`Scale::hierarchy`] every cell is simulated under.
    pub scale: Scale,
    /// The dataset axis of the grid.
    pub datasets: Vec<DatasetId>,
    /// The reordering-technique axis (default: DBG only).
    pub techniques: Vec<TechniqueKind>,
    /// The application axis.
    pub apps: Vec<AppKind>,
    /// The LLC-policy axis.
    pub policies: Vec<PolicyKind>,
    /// Worker-thread budget; `0` means one worker per available CPU.
    pub threads: usize,
    /// Trace-store directory. `None` runs without persistence (unless the
    /// campaign is later handed a store with
    /// [`Campaign::with_trace_store`]).
    ///
    /// [`Campaign::with_trace_store`]: crate::campaign::Campaign::with_trace_store
    pub store: Option<String>,
}

impl CampaignSpec {
    /// An empty spec at the given scale: no datasets, apps or policies,
    /// DBG reordering, one worker per CPU, no store.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            datasets: Vec::new(),
            techniques: vec![TechniqueKind::Dbg],
            apps: Vec::new(),
            policies: Vec::new(),
            threads: 0,
            store: None,
        }
    }

    /// The grid coordinates in deterministic grid order: datasets
    /// outermost, then techniques, applications and policies. This is the
    /// one definition of the grid — [`Campaign::cells`] delegates here, so
    /// a service run of this spec provably walks the same cells as the
    /// library campaign it round-trips to.
    ///
    /// [`Campaign::cells`]: crate::campaign::Campaign::cells
    pub fn cells(&self) -> Vec<CampaignCell> {
        let mut cells = Vec::with_capacity(
            self.datasets.len() * self.techniques.len() * self.apps.len() * self.policies.len(),
        );
        for &dataset in &self.datasets {
            for &technique in &self.techniques {
                for &app in &self.apps {
                    for &policy in &self.policies {
                        cells.push(CampaignCell {
                            dataset,
                            technique,
                            app,
                            policy,
                        });
                    }
                }
            }
        }
        cells
    }

    /// The unique (dataset, technique, app) stream coordinates of the grid
    /// in first-seen order — the units the record-once / replay-many plans
    /// (and the service's single-flight registry) deduplicate on.
    pub fn streams(&self) -> Vec<(DatasetId, TechniqueKind, AppKind)> {
        let mut seen = Vec::new();
        for cell in self.cells() {
            let key = (cell.dataset, cell.technique, cell.app);
            if !seen.contains(&key) {
                seen.push(key);
            }
        }
        seen
    }

    /// Encodes the spec as a JSON document (object key order is stable, so
    /// equal specs serialize to equal bytes).
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// The spec as a [`Json`] value (for embedding in larger documents —
    /// the service's request frames carry the spec under a `"spec"` key).
    pub fn to_value(&self) -> Json {
        let mut map = BTreeMap::new();
        map.insert("scale".to_owned(), Json::string(self.scale.slug()));
        map.insert(
            "datasets".to_owned(),
            Json::Array(
                self.datasets
                    .iter()
                    .map(|d| Json::string(d.slug()))
                    .collect(),
            ),
        );
        map.insert(
            "techniques".to_owned(),
            Json::Array(
                self.techniques
                    .iter()
                    .map(|t| Json::string(t.label()))
                    .collect(),
            ),
        );
        map.insert(
            "apps".to_owned(),
            Json::Array(self.apps.iter().map(|a| Json::string(a.label())).collect()),
        );
        map.insert(
            "policies".to_owned(),
            Json::Array(
                self.policies
                    .iter()
                    .map(|p| Json::string(policy_wire(*p)))
                    .collect(),
            ),
        );
        map.insert("threads".to_owned(), Json::integer(self.threads as u64));
        if let Some(store) = &self.store {
            map.insert("store".to_owned(), Json::string(store.clone()));
        }
        Json::Object(map)
    }

    /// Decodes a spec from a JSON document.
    pub fn from_json(text: &str) -> Result<Self, Error> {
        let value = json::parse(text).map_err(Error::Spec)?;
        Self::from_value(&value)
    }

    /// Decodes a spec from a parsed [`Json`] value. Every field is
    /// validated — unknown fields and labels and wrong types all surface as
    /// [`Error::Spec`] (kind `spec/invalid`), never a panic.
    pub fn from_value(value: &Json) -> Result<Self, Error> {
        let object = value
            .as_object()
            .ok_or_else(|| spec_err("spec must be a JSON object"))?;
        for key in object.keys() {
            const KNOWN: [&str; 7] = [
                "scale",
                "datasets",
                "techniques",
                "apps",
                "policies",
                "threads",
                "store",
            ];
            if !KNOWN.contains(&key.as_str()) {
                return Err(spec_err(format!("unknown field {key:?}")));
            }
        }

        let scale_slug = require_str(value, "scale")?;
        let scale = Scale::from_slug(scale_slug)
            .ok_or_else(|| spec_err(format!("unknown scale {scale_slug:?}")))?;
        let mut spec = CampaignSpec::new(scale);

        spec.datasets = parse_labels(value, "datasets", |slug| {
            DatasetId::from_slug(slug).ok_or_else(|| spec_err(format!("unknown dataset {slug:?}")))
        })?
        .unwrap_or_default();
        if let Some(techniques) = parse_labels(value, "techniques", |label| {
            TechniqueKind::from_label(label)
                .ok_or_else(|| spec_err(format!("unknown technique {label:?}")))
        })? {
            spec.techniques = techniques;
        }
        spec.apps = parse_labels(value, "apps", |label| {
            AppKind::from_label(label).ok_or_else(|| spec_err(format!("unknown app {label:?}")))
        })?
        .unwrap_or_default();
        spec.policies = parse_labels(value, "policies", |label| {
            PolicyKind::from_label(label)
                .ok_or_else(|| spec_err(format!("unknown policy {label:?}")))
        })?
        .unwrap_or_default();

        spec.threads = parse_count(value, "threads")?.unwrap_or(0);
        if let Some(store) = value.get("store") {
            spec.store = Some(
                store
                    .as_str()
                    .ok_or_else(|| spec_err("store must be a string path"))?
                    .to_owned(),
            );
        }
        Ok(spec)
    }
}

/// The wire spelling of a policy: the paper label, except pin fractions are
/// always spelled out (`PIN-30`, not the display label's `PIN-X`) so every
/// policy round-trips.
pub fn policy_wire(policy: PolicyKind) -> String {
    match policy {
        PolicyKind::Pin(percent) => format!("PIN-{percent}"),
        other => other.label().to_owned(),
    }
}

fn spec_err(message: impl Into<String>) -> Error {
    Error::Spec(message.into())
}

fn require_str<'a>(value: &'a Json, field: &str) -> Result<&'a str, Error> {
    value
        .get(field)
        .ok_or_else(|| spec_err(format!("missing field {field:?}")))?
        .as_str()
        .ok_or_else(|| spec_err(format!("{field} must be a string")))
}

/// Parses an optional array-of-strings field through `parse_one`.
fn parse_labels<T>(
    value: &Json,
    field: &str,
    parse_one: impl Fn(&str) -> Result<T, Error>,
) -> Result<Option<Vec<T>>, Error> {
    let Some(items) = value.get(field) else {
        return Ok(None);
    };
    let items = items
        .as_array()
        .ok_or_else(|| spec_err(format!("{field} must be an array of strings")))?;
    items
        .iter()
        .map(|item| {
            let label = item
                .as_str()
                .ok_or_else(|| spec_err(format!("{field} entries must be strings")))?;
            parse_one(label)
        })
        .collect::<Result<Vec<T>, Error>>()
        .map(Some)
}

fn parse_count(value: &Json, field: &str) -> Result<Option<usize>, Error> {
    let Some(number) = value.get(field) else {
        return Ok(None);
    };
    number
        .as_u64()
        .map(|n| Some(n as usize))
        .ok_or_else(|| spec_err(format!("{field} must be a non-negative integer")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::datasets::{DatasetKind, GraphHash};
    use proptest::prelude::*;

    fn full_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new(Scale::Small);
        spec.datasets = vec![
            DatasetKind::Twitter.into(),
            DatasetKind::LiveJournal.into(),
            DatasetId::Ingested(GraphHash(0xdead_beef_0123_4567)),
        ];
        spec.techniques = vec![TechniqueKind::Sort, TechniqueKind::GorderDbg];
        spec.apps = vec![AppKind::PageRank, AppKind::Sssp];
        spec.policies = vec![
            PolicyKind::Rrip,
            PolicyKind::Pin(30),
            PolicyKind::GraspInsertionOnly,
            PolicyKind::Grasp,
        ];
        spec.threads = 6;
        spec.store = Some("/tmp/grasp store \"quoted\"".to_owned());
        spec
    }

    #[test]
    fn json_round_trips_every_field() {
        let spec = full_spec();
        let text = spec.to_json();
        let decoded = CampaignSpec::from_json(&text).expect("own output decodes");
        assert_eq!(decoded, spec);
        // Stable bytes: equal specs serialize identically.
        assert_eq!(decoded.to_json(), text);
    }

    #[test]
    fn defaults_round_trip_and_omit_optionals() {
        let spec = CampaignSpec::new(Scale::Tiny);
        let text = spec.to_json();
        assert!(!text.contains("store"));
        assert_eq!(CampaignSpec::from_json(&text).unwrap(), spec);
    }

    #[test]
    fn cells_walk_the_grid_in_order() {
        let mut spec = CampaignSpec::new(Scale::Tiny);
        spec.datasets = vec![DatasetKind::Twitter.into(), DatasetKind::Kron.into()];
        spec.apps = vec![AppKind::PageRank];
        spec.policies = vec![PolicyKind::Rrip, PolicyKind::Grasp];
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].dataset, DatasetKind::Twitter);
        assert_eq!(cells[0].policy, PolicyKind::Rrip);
        assert_eq!(cells[1].policy, PolicyKind::Grasp);
        assert_eq!(cells[2].dataset, DatasetKind::Kron);
        assert_eq!(spec.streams().len(), 2);
    }

    #[test]
    fn decode_rejects_bad_documents() {
        let cases: &[(&str, &str)] = &[
            ("[1,2]", "spec must be a JSON object"),
            (r#"{"datasets":["tw"]}"#, "missing field \"scale\""),
            (r#"{"scale":"huge"}"#, "unknown scale"),
            (r#"{"scale":"tiny","datasets":["??"]}"#, "unknown dataset"),
            (r#"{"scale":"tiny","policies":["PIN-0"]}"#, "unknown policy"),
            (
                r#"{"scale":"tiny","policies":["PIN-101"]}"#,
                "unknown policy",
            ),
            // DRRIP's duel sides and random replacement are not policies
            // of the evaluation.
            (r#"{"scale":"tiny","policies":["SRRIP"]}"#, "unknown policy"),
            (r#"{"scale":"tiny","policies":["BRRIP"]}"#, "unknown policy"),
            (
                r#"{"scale":"tiny","policies":["Random"]}"#,
                "unknown policy",
            ),
            // The graph as loaded is not a technique: a campaign without
            // reordering has nothing to name.
            (
                r#"{"scale":"tiny","techniques":["Original"]}"#,
                "unknown technique",
            ),
            (r#"{"scale":"tiny","mode":"pipelined"}"#, "unknown field"),
            (r#"{"scale":"tiny","pipelines":2}"#, "unknown field"),
            (r#"{"scale":"tiny","threads":-1}"#, "threads must be"),
            (r#"{"scale":"tiny","threads":1.5}"#, "threads must be"),
            (r#"{"scale":"tiny","codec":"raw"}"#, "unknown field"),
            (
                r#"{"scale":"tiny","record_trace":false}"#,
                "unknown field \"record_trace\"",
            ),
            (r#"{"scale":"tiny","frobnicate":1}"#, "unknown field"),
            (
                r#"{"scale":"tiny","hierarchy":{
                "l1":{"size_bytes":32768,"ways":8,"block_bytes":64},
                "l2":{"size_bytes":262144,"ways":8,"block_bytes":64},
                "llc":{"size_bytes":32768,"ways":16,"block_bytes":64},
                "latency":{"l1_cycles":4,"l2_cycles":10,"llc_cycles":30,"memory_cycles":200},
                "prefetch":true}}"#,
                "unknown field \"hierarchy\"",
            ),
        ];
        for (doc, needle) in cases {
            let err = CampaignSpec::from_json(doc).expect_err(doc);
            assert_eq!(err.kind(), "spec/invalid", "{doc}");
            assert!(err.to_string().contains(needle), "{doc}: {err}");
        }
    }

    #[test]
    fn pin_policies_round_trip_through_the_wire_spelling() {
        for percent in [1u8, 25, 30, 99, 100] {
            let wire = policy_wire(PolicyKind::Pin(percent));
            assert_eq!(
                PolicyKind::from_label(&wire),
                Some(PolicyKind::Pin(percent))
            );
        }
        assert_eq!(PolicyKind::from_label("PIN-X"), None);
    }

    /// Deterministic spec generator for the property test: every field is
    /// drawn from the seed, covering all scales/techniques/apps,
    /// ingested datasets, arbitrary pin fractions and optional fields.
    fn arbitrary_spec(seed: u64) -> CampaignSpec {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let scales = [Scale::Tiny, Scale::Small, Scale::Medium, Scale::Large];
        let mut spec = CampaignSpec::new(scales[next(4) as usize]);
        spec.datasets = (0..next(4))
            .map(|_| match next(8) {
                7 => DatasetId::Ingested(GraphHash(next(u64::MAX))),
                k => DatasetKind::ALL[k as usize].into(),
            })
            .collect();
        spec.techniques = (0..1 + next(3))
            .map(|_| TechniqueKind::ALL[next(TechniqueKind::ALL.len() as u64) as usize])
            .collect();
        spec.apps = (0..next(4))
            .map(|_| AppKind::ALL[next(5) as usize])
            .collect();
        spec.policies = (0..next(5))
            .map(|_| match next(4) {
                0 => PolicyKind::Pin(1 + next(100) as u8),
                1 => PolicyKind::Grasp,
                2 => PolicyKind::Rrip,
                _ => PolicyKind::Hawkeye,
            })
            .collect();
        spec.threads = next(9) as usize;
        if next(2) == 0 {
            // Under the temp directory: `Campaign::from_spec` creates it.
            let name = format!("grasp-spec-{}-{}", std::process::id(), next(1000));
            spec.store = Some(std::env::temp_dir().join(name).display().to_string());
        }
        spec
    }

    proptest! {
        #[test]
        fn random_specs_round_trip_through_json(seed in 0u64..u64::MAX) {
            let spec = arbitrary_spec(seed);
            let text = spec.to_json();
            let decoded = CampaignSpec::from_json(&text)
                .map_err(|e| TestCaseError::fail(format!("{e}")))?;
            prop_assert_eq!(&decoded, &spec);
            prop_assert_eq!(decoded.to_json(), text);
        }

        #[test]
        fn a_campaign_is_its_spec(seed in 0u64..u64::MAX) {
            let spec = arbitrary_spec(seed);
            let campaign = Campaign::from_spec(&spec)
                .map_err(|e| TestCaseError::fail(format!("{e}")))?;
            if let Some(dir) = &spec.store {
                std::fs::remove_dir(dir).ok();
            }
            prop_assert_eq!(campaign.store.is_some(), spec.store.is_some());
            prop_assert_eq!(campaign.cells(), spec.cells());
            prop_assert_eq!(campaign.spec, spec);
        }
    }
}
