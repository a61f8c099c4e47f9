//! The metric catalogue: every name the harness prints, with its unit,
//! direction, whether it must repeat exactly, and which end-to-end metric
//! it is expected to move on which workload (`moves`). `BENCHMARK.json`
//! lists the same names; `tests/smoke.rs` keeps the two in step.

use crate::stats::Summary;
use grasp_analytics::apps::AppKind;
use grasp_core::json::Json;
use grasp_core::policy::PolicyKind;
use std::collections::BTreeMap;

/// The applications of every library grid, with their metric-name slugs
/// (`AppKind::ALL` order).
pub const APPS: [(AppKind, &str); 5] = [
    (AppKind::Bc, "bc"),
    (AppKind::Sssp, "sssp"),
    (AppKind::PageRank, "pr"),
    (AppKind::PageRankDelta, "prd"),
    (AppKind::Radii, "radii"),
];

/// The policy sweep of the warm and serve grids, with metric-name slugs.
pub const POLICIES: [(PolicyKind, &str); 6] = [
    (PolicyKind::Lru, "lru"),
    (PolicyKind::Rrip, "rrip"),
    (PolicyKind::ShipMem, "ship-mem"),
    (PolicyKind::Hawkeye, "hawkeye"),
    (PolicyKind::Leeway, "leeway"),
    (PolicyKind::Grasp, "grasp"),
];

/// The sweep's policies without their slugs.
pub fn sweep_policies() -> Vec<PolicyKind> {
    POLICIES.iter().map(|&(policy, _)| policy).collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Simulated or counted: must be identical between two runs of one
    /// commit and seed, and across any change meant only to speed up the
    /// simulator.
    pub exact: bool,
    /// Which end-to-end metric this one should move, on which workload.
    pub moves: &'static str,
}

const MOVES_GRAPH: &str = "wall_norm_s and cells_per_norm_s on cold_record_highskew only (ingest is inside its operation); no change on warm_sweep_* and serve_overlap";
const MOVES_PREP: &str = "ttfc_norm_s on all three library workloads (prep is serial before any obtain task); small share of wall_norm_s";
const MOVES_RECORD: &str = "wall_norm_s/cells_per_norm_s on cold_record_highskew and serve.cold_wall_s; predicted no change on warm_sweep_* (recorded == 0 is asserted)";
const MOVES_LOAD: &str =
    "ttfc_norm_s and wall_norm_s on warm_sweep_* and serve.warm_*; no change on cold_record_highskew";
const MOVES_REPLAY: &str = "sim_accesses_per_norm_s and wall_norm_s on warm_sweep_highskew (hit-heavy) and warm_sweep_noskew (miss-heavy): a gain on one with a loss on the other is a regression; at most a third of wall_norm_s on cold_record_highskew";
const MOVES_SCHED: &str =
    "wall_norm_s on warm_sweep_* (30 replay tasks on 2 workers) and ttfc_norm_s everywhere";
const MOVES_SERVE: &str = "ttfc_norm_s/wall_norm_s on serve_overlap only";
const MOVES_MODEL: &str = "simulated result, not host speed: must stay identical under any change meant only to speed up the simulator";
const MOVES_NONE: &str = "reported, not gated";

/// The end-to-end metrics, printed by every workload's untraced pass. All
/// are host time in normalised seconds (see [`crate::host`]).
pub fn end_to_end() -> Vec<MetricDef> {
    let def = |name: &str, unit, better| MetricDef {
        name: name.to_owned(),
        unit,
        better,
        exact: false,
        moves: "",
    };
    vec![
        def("setup_s", "s", Better::Lower),
        def("wall_norm_s", "s", Better::Lower),
        def("cells_per_norm_s", "1/s", Better::Higher),
        def("sim_accesses_per_norm_s", "1/s", Better::Higher),
        def("ttfc_norm_s", "s", Better::Lower),
    ]
}

/// The per-layer metrics, printed by every workload's traced pass.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = Vec::new();
    let mut def = |name: String, unit, better, exact, moves| {
        defs.push(MetricDef {
            name,
            unit,
            better,
            exact,
            moves,
        });
    };
    use Better::{Higher, Lower};

    for name in ["parse_s", "build_csr_s", "write_disk_s"] {
        def(format!("graph.{name}"), "s", Lower, false, MOVES_GRAPH);
    }
    def("graph.open_s".into(), "s", Lower, false, MOVES_PREP);
    def("graph.verify_s".into(), "s", Lower, false, MOVES_NONE);
    def("graph.edges".into(), "count", Higher, true, MOVES_NONE);
    def("graph.gcsr_bytes".into(), "B", Lower, true, MOVES_NONE);
    def(
        "graph.ingest_edges_per_s".into(),
        "1/s",
        Higher,
        false,
        MOVES_GRAPH,
    );

    def("reorder.compute_s".into(), "s", Lower, false, MOVES_PREP);
    def("reorder.relabel_s".into(), "s", Lower, false, MOVES_PREP);
    def(
        "reorder.edges_per_s".into(),
        "1/s",
        Higher,
        false,
        MOVES_PREP,
    );

    for (_, app) in APPS {
        def(
            format!("analytics.native_s.{app}"),
            "s",
            Lower,
            false,
            MOVES_RECORD,
        );
    }
    for (_, app) in APPS {
        def(format!("record.s.{app}"), "s", Lower, false, MOVES_RECORD);
    }
    def(
        "record.filter_self_s".into(),
        "s",
        Lower,
        false,
        MOVES_RECORD,
    );
    def(
        "record.l1_accesses".into(),
        "count",
        Lower,
        true,
        MOVES_MODEL,
    );
    def(
        "record.llc_records".into(),
        "count",
        Lower,
        true,
        MOVES_MODEL,
    );
    def(
        "record.pass_ratio".into(),
        "ratio",
        Lower,
        true,
        MOVES_MODEL,
    );

    def("persist.encode_s".into(), "s", Lower, false, MOVES_RECORD);
    def("persist.decode_s".into(), "s", Lower, false, MOVES_LOAD);
    def(
        "persist.bytes_per_record".into(),
        "B",
        Lower,
        true,
        MOVES_NONE,
    );
    def(
        "persist.encode_records_per_s".into(),
        "1/s",
        Higher,
        false,
        MOVES_RECORD,
    );
    def(
        "persist.decode_records_per_s".into(),
        "1/s",
        Higher,
        false,
        MOVES_LOAD,
    );

    def("store.publish_s".into(), "s", Lower, false, MOVES_RECORD);
    def("store.probe_s".into(), "s", Lower, false, MOVES_LOAD);
    def("store.load_s".into(), "s", Lower, false, MOVES_LOAD);
    def("store.hits".into(), "count", Higher, true, MOVES_NONE);
    def("store.misses".into(), "count", Lower, true, MOVES_NONE);
    def("store.corrupt".into(), "count", Lower, true, MOVES_NONE);
    def("store.bytes_written".into(), "B", Lower, true, MOVES_NONE);
    def("store.bytes_read".into(), "B", Lower, true, MOVES_NONE);

    for (_, policy) in POLICIES {
        def(
            format!("replay.ns_per_access.{policy}"),
            "ns",
            Lower,
            false,
            MOVES_REPLAY,
        );
    }
    for (_, policy) in POLICIES {
        def(
            format!("replay.llc_misses.{policy}"),
            "count",
            Lower,
            true,
            MOVES_MODEL,
        );
    }
    def("replay.fanout_s".into(), "s", Lower, false, MOVES_NONE);
    def(
        "replay.single_sum_s".into(),
        "s",
        Lower,
        false,
        MOVES_REPLAY,
    );
    def(
        "replay.fanout_ratio".into(),
        "ratio",
        Lower,
        false,
        MOVES_NONE,
    );

    def(
        "campaign.graph_prep_s".into(),
        "s",
        Lower,
        false,
        MOVES_PREP,
    );
    def("campaign.ideal_s".into(), "s", Lower, false, MOVES_SCHED);
    def("campaign.residual_s".into(), "s", Lower, false, MOVES_SCHED);
    def(
        "campaign.sched_efficiency".into(),
        "ratio",
        Higher,
        false,
        MOVES_SCHED,
    );
    def("campaign.recorded".into(), "count", Lower, true, MOVES_NONE);
    def("campaign.loads".into(), "count", Higher, true, MOVES_NONE);
    def("campaign.deduped".into(), "count", Higher, true, MOVES_NONE);
    def(
        "campaign.peak_rss_mib".into(),
        "MiB",
        Lower,
        false,
        MOVES_NONE,
    );

    def("spec.parse_us".into(), "us", Lower, false, MOVES_SERVE);
    def("spec.print_us".into(), "us", Lower, false, MOVES_SERVE);

    for name in [
        "ping_rtt_s",
        "accept_s",
        "cold_wall_s",
        "warm_wall_s",
        "cold_ttfc_s",
        "warm_ttfc_s",
    ] {
        def(format!("serve.{name}"), "s", Lower, false, MOVES_SERVE);
    }
    // The daemon's census depends on which client wins the race for a
    // stream, so only the sums are checked, not these splits.
    def("serve.recorded".into(), "count", Lower, false, MOVES_NONE);
    def("serve.deduped".into(), "count", Higher, false, MOVES_NONE);
    def("serve.loads".into(), "count", Higher, false, MOVES_NONE);
    def("serve.overloaded".into(), "count", Lower, true, MOVES_NONE);
    def(
        "serve.frame_bytes_per_cell".into(),
        "B",
        Lower,
        false,
        MOVES_SERVE,
    );
    def(
        "serve.vs_library_ratio".into(),
        "ratio",
        Lower,
        false,
        MOVES_SERVE,
    );

    def(
        "model.grasp_miss_reduction_pct".into(),
        "%",
        Higher,
        true,
        MOVES_MODEL,
    );
    def(
        "model.grasp_speedup_pct".into(),
        "%",
        Higher,
        true,
        MOVES_MODEL,
    );

    def("trace.overhead_pct".into(), "%", Lower, false, MOVES_NONE);
    def("host.ref_s".into(), "s", Lower, false, MOVES_NONE);
    defs
}

/// One measured metric: the reported value (a median for timings) and, for
/// repeated measurements, their summary.
#[derive(Debug, Clone)]
pub struct Measured {
    pub value: f64,
    pub unit: &'static str,
    pub summary: Option<Summary>,
}

/// The metrics of one (workload, pass), checked against the catalogue: a
/// name outside it, a name set twice, or a name never set is a harness bug.
#[derive(Debug)]
pub struct Report {
    defs: Vec<MetricDef>,
    values: BTreeMap<String, Measured>,
}

impl Report {
    pub fn new(defs: Vec<MetricDef>) -> Self {
        Self {
            defs,
            values: BTreeMap::new(),
        }
    }

    fn insert(&mut self, name: &str, value: f64, summary: Option<Summary>) {
        let def = self
            .defs
            .iter()
            .find(|def| def.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let measured = Measured {
            value,
            unit: def.unit,
            summary,
        };
        let previous = self.values.insert(name.to_owned(), measured);
        assert!(previous.is_none(), "metric {name} reported twice");
    }

    /// A single value: a count, a ratio of medians, a simulated result.
    pub fn put(&mut self, name: &str, value: f64) {
        self.insert(name, value, None);
    }

    /// A repeated measurement, reported as its median.
    pub fn put_samples(&mut self, name: &str, samples: &[f64]) {
        let summary = Summary::of(samples);
        self.insert(name, summary.median, Some(summary));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} not measured yet"))
            .value
    }

    /// The catalogue entries with their measurements, in catalogue order;
    /// panics if one is missing.
    pub fn rows(&self) -> Vec<(&MetricDef, &Measured)> {
        self.defs
            .iter()
            .map(|def| {
                let measured = self
                    .values
                    .get(&def.name)
                    .unwrap_or_else(|| panic!("metric {} was never measured", def.name));
                (def, measured)
            })
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}}` — the driver-facing shape.
    pub fn to_result_metrics(&self) -> Json {
        Json::Object(
            self.rows()
                .into_iter()
                .map(|(def, m)| {
                    let entry = Json::object([
                        ("value", Json::Number(m.value)),
                        ("unit", Json::string(m.unit)),
                    ]);
                    (def.name.clone(), entry)
                })
                .collect(),
        )
    }

    /// The full shape for the `--out` file: value, unit, direction and the
    /// repetitions' summary.
    pub fn to_detailed(&self) -> Json {
        Json::Object(
            self.rows()
                .into_iter()
                .map(|(def, m)| {
                    let mut entry = BTreeMap::new();
                    entry.insert("value".to_owned(), Json::Number(m.value));
                    entry.insert("unit".to_owned(), Json::string(m.unit));
                    entry.insert("better".to_owned(), Json::string(def.better.label()));
                    entry.insert("exact".to_owned(), Json::Bool(def.exact));
                    if !def.moves.is_empty() {
                        entry.insert("moves".to_owned(), Json::string(def.moves));
                    }
                    if let Some(s) = m.summary {
                        entry.insert("n".to_owned(), Json::integer(s.n as u64));
                        entry.insert("min".to_owned(), Json::Number(s.min));
                        entry.insert("q1".to_owned(), Json::Number(s.q1));
                        entry.insert("median".to_owned(), Json::Number(s.median));
                        entry.insert("q3".to_owned(), Json::Number(s.q3));
                        entry.insert("max".to_owned(), Json::Number(s.max));
                    }
                    (def.name.clone(), Json::Object(entry))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in end_to_end().into_iter().chain(per_layer()) {
            assert!(
                def.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                def.name
            );
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(seen.insert(def.name.clone()), "duplicate {}", def.name);
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn a_missing_metric_is_a_bug() {
        let report = Report::new(end_to_end());
        report.rows();
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn a_duplicate_metric_is_a_bug() {
        let mut report = Report::new(end_to_end());
        report.put("wall_norm_s", 1.0);
        report.put("wall_norm_s", 2.0);
    }
}
