//! The dataset catalog.
//!
//! The paper evaluates on five large high-skew graphs (LiveJournal, PLD,
//! Twitter, Kron, SD1-ARC) plus two adversarial low-/no-skew graphs
//! (Friendster, Uniform) — Table V. Those datasets total tens of gigabytes
//! and are not available offline, so the reproduction substitutes synthetic
//! graphs whose *skew* (hot-vertex fraction and edge coverage, Table I)
//! mirrors each original, scaled down together with the simulated LLC so the
//! cache-pressure regime is preserved (see `docs/datasets.md`).

use grasp_cachesim::config::HierarchyConfig;
use grasp_graph::degree::SkewReport;
use grasp_graph::generators::{ChungLu, GraphGenerator, Rmat, Uniform};
use grasp_graph::ingest::{self, DiskCsrError};
use grasp_graph::{Csr, GraphView};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Scale of a synthetic dataset (vertex count and the matching LLC size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// 2^11 vertices — tests and smoke runs.
    Tiny,
    /// 2^15 vertices — the bench harness's default ([`Scale::from_env`]).
    Small,
    /// 2^17 vertices.
    Medium,
    /// 2^19 vertices — closer to the paper's regime; slower.
    Large,
}

impl Scale {
    /// Reads the scale from the `GRASP_SCALE` environment variable
    /// (`tiny` / `small` / `medium` / `large`), defaulting to `Small` so that
    /// the full bench suite completes quickly out of the box.
    pub fn from_env() -> Self {
        let name = std::env::var("GRASP_SCALE")
            .unwrap_or_default()
            .to_lowercase();
        if name.is_empty() {
            return Scale::Small;
        }
        Scale::from_slug(&name).unwrap_or_else(|| {
            eprintln!("unknown GRASP_SCALE '{name}', using small");
            Scale::Small
        })
    }

    /// log2 of the number of vertices.
    pub fn scale_log2(self) -> u32 {
        match self {
            Scale::Tiny => 11,
            Scale::Small => 15,
            Scale::Medium => 17,
            Scale::Large => 19,
        }
    }

    /// Number of vertices.
    pub fn vertices(self) -> u64 {
        1 << self.scale_log2()
    }

    /// LLC capacity paired with this scale, keeping the LLC : Property Array
    /// footprint ratio in the paper's regime: the footprint of the hot
    /// vertices alone meets or exceeds the LLC capacity, so thrashing occurs
    /// even among hot vertices (Sec. II-E).
    pub fn llc_bytes(self) -> u64 {
        match self {
            Scale::Tiny => 32 * 1024,
            Scale::Small => 64 * 1024,
            Scale::Medium => 128 * 1024,
            Scale::Large => 256 * 1024,
        }
    }

    /// The hierarchy configuration paired with this scale.
    pub fn hierarchy(self) -> HierarchyConfig {
        HierarchyConfig::scaled_with_llc(self.llc_bytes())
    }

    /// The scale's wire/store slug (`tiny` / `small` / `medium` / `large`),
    /// used in trace-store entry file names and [`CampaignSpec`] documents.
    ///
    /// [`CampaignSpec`]: crate::spec::CampaignSpec
    pub fn slug(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
        }
    }

    /// Parses a [`Scale::slug`] back to the scale (case-sensitive, exact).
    pub fn from_slug(slug: &str) -> Option<Self> {
        [Scale::Tiny, Scale::Small, Scale::Medium, Scale::Large]
            .into_iter()
            .find(|scale| scale.slug() == slug)
    }
}

/// The seven datasets of Table V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// LiveJournal (`lj`) — moderate skew social network.
    LiveJournal,
    /// PLD hyperlink graph (`pl`).
    Pld,
    /// Twitter follower graph (`tw`) — high skew.
    Twitter,
    /// Synthetic Kronecker graph (`kr`) — highest skew.
    Kron,
    /// SD1-ARC web crawl (`sd`).
    Sd1Arc,
    /// Friendster (`fr`) — low-skew adversarial dataset.
    Friendster,
    /// Uniform random graph (`uni`) — no-skew adversarial dataset.
    Uniform,
}

impl DatasetKind {
    /// The five high-skew datasets used in the main evaluation, in the
    /// paper's order (lj, pl, tw, kr, sd).
    pub const HIGH_SKEW: [DatasetKind; 5] = [
        DatasetKind::LiveJournal,
        DatasetKind::Pld,
        DatasetKind::Twitter,
        DatasetKind::Kron,
        DatasetKind::Sd1Arc,
    ];

    /// The two adversarial datasets (fr, uni).
    pub const ADVERSARIAL: [DatasetKind; 2] = [DatasetKind::Friendster, DatasetKind::Uniform];

    /// All seven datasets.
    pub const ALL: [DatasetKind; 7] = [
        DatasetKind::LiveJournal,
        DatasetKind::Pld,
        DatasetKind::Twitter,
        DatasetKind::Kron,
        DatasetKind::Sd1Arc,
        DatasetKind::Friendster,
        DatasetKind::Uniform,
    ];

    /// Short label matching the paper (lj, pl, tw, kr, sd, fr, uni).
    pub fn label(self) -> &'static str {
        match self {
            DatasetKind::LiveJournal => "lj",
            DatasetKind::Pld => "pl",
            DatasetKind::Twitter => "tw",
            DatasetKind::Kron => "kr",
            DatasetKind::Sd1Arc => "sd",
            DatasetKind::Friendster => "fr",
            DatasetKind::Uniform => "uni",
        }
    }

    /// Parses a paper label ([`DatasetKind::label`]) back to the kind.
    pub fn from_label(label: &str) -> Option<Self> {
        DatasetKind::ALL
            .into_iter()
            .find(|kind| kind.label() == label)
    }

    /// Average degree of the synthetic stand-in (Table V reports 14–33).
    pub fn average_degree(self) -> u64 {
        match self {
            DatasetKind::LiveJournal => 14,
            DatasetKind::Pld => 15,
            DatasetKind::Twitter => 24,
            DatasetKind::Kron => 20,
            DatasetKind::Sd1Arc => 20,
            DatasetKind::Friendster => 16,
            DatasetKind::Uniform => 20,
        }
    }

    /// Deterministic generator seed per dataset so every run of the harness
    /// sees the same graphs.
    fn seed(self) -> u64 {
        match self {
            DatasetKind::LiveJournal => 0x1001,
            DatasetKind::Pld => 0x1002,
            DatasetKind::Twitter => 0x1003,
            DatasetKind::Kron => 0x1004,
            DatasetKind::Sd1Arc => 0x1005,
            DatasetKind::Friendster => 0x1006,
            DatasetKind::Uniform => 0x1007,
        }
    }

    /// Builds the synthetic stand-in graph at the given scale.
    pub fn generate(self, scale: Scale) -> Csr {
        let n = scale.vertices();
        let log2 = scale.scale_log2();
        let degree = self.average_degree();
        match self {
            // Moderate-skew social graphs: Chung-Lu with gamma ~2.2-2.4 gives
            // hot-vertex fractions around 20-25% (Table I: lj 25%, pl 16%).
            DatasetKind::LiveJournal => ChungLu::new(n, degree, 2.40).generate(self.seed()),
            DatasetKind::Pld => ChungLu::new(n, degree, 2.15).generate(self.seed()),
            // High-skew graphs: R-MAT with Graph500 parameters (tw, sd) and a
            // more aggressive quadrant split for kr (Table I: 9% hot, 93%
            // coverage).
            DatasetKind::Twitter => Rmat::new(log2, degree).generate(self.seed()),
            DatasetKind::Kron => {
                Rmat::with_probabilities(log2, degree, 0.63, 0.17, 0.17).generate(self.seed())
            }
            DatasetKind::Sd1Arc => Rmat::new(log2, degree).generate(self.seed()),
            // Low-skew adversarial dataset: a mild power law.
            DatasetKind::Friendster => ChungLu::new(n, degree, 3.5).generate(self.seed()),
            // No-skew adversarial dataset.
            DatasetKind::Uniform => Uniform::new(n, degree).generate(self.seed()),
        }
    }

    /// Builds the dataset together with its metadata.
    pub fn build(self, scale: Scale) -> Dataset {
        let graph = self.generate(scale);
        Dataset {
            kind: self,
            scale,
            graph,
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Content hash of an ingested on-disk graph: the FNV-1a digest computed by
/// `grasp_graph::ingest::write_disk_csr` over the graph's dimensions and
/// column bytes. Two ingests of the same edge list — at any thread count —
/// produce the same hash; any structural edit changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphHash(pub u64);

impl GraphHash {
    /// Store slug for this hash (`g<hash:016x>`), used in trace-store entry
    /// file names.
    pub fn slug(self) -> String {
        format!("g{:016x}", self.0)
    }
}

impl std::fmt::Display for GraphHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The identity of a dataset on a campaign axis: either one of the paper's
/// synthetic stand-ins ([`DatasetKind`]) or a real graph ingested to the
/// on-disk binary CSR format, referenced by content hash and resolved
/// through a [`DatasetCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// A synthetic Table V stand-in, generated at campaign scale.
    Synthetic(DatasetKind),
    /// An ingested on-disk graph, identified by content hash.
    Ingested(GraphHash),
}

impl DatasetId {
    /// Store slug: the paper label for synthetic datasets (`lj`, `tw`, ...),
    /// `g<hash:016x>` for ingested graphs. Lands verbatim in trace-store
    /// entry file names, so a re-ingested (changed) graph can never serve a
    /// stale trace.
    pub fn slug(&self) -> String {
        match self {
            DatasetId::Synthetic(kind) => kind.label().to_owned(),
            DatasetId::Ingested(hash) => hash.slug(),
        }
    }

    /// Parses a [`DatasetId::slug`] back to the identity: a paper label
    /// (`lj`, `tw`, ...) resolves to the synthetic kind, a `g<hash:016x>`
    /// slug to the ingested content hash.
    pub fn from_slug(slug: &str) -> Option<Self> {
        if let Some(kind) = DatasetKind::from_label(slug) {
            return Some(DatasetId::Synthetic(kind));
        }
        let hex = slug.strip_prefix('g')?;
        if hex.len() != 16 {
            return None;
        }
        u64::from_str_radix(hex, 16)
            .ok()
            .map(|hash| DatasetId::Ingested(GraphHash(hash)))
    }
}

impl From<DatasetKind> for DatasetId {
    fn from(kind: DatasetKind) -> Self {
        DatasetId::Synthetic(kind)
    }
}

impl From<GraphHash> for DatasetId {
    fn from(hash: GraphHash) -> Self {
        DatasetId::Ingested(hash)
    }
}

impl PartialEq<DatasetKind> for DatasetId {
    fn eq(&self, other: &DatasetKind) -> bool {
        matches!(self, DatasetId::Synthetic(kind) if kind == other)
    }
}

impl PartialEq<DatasetId> for DatasetKind {
    fn eq(&self, other: &DatasetId) -> bool {
        other == self
    }
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.slug())
    }
}

/// One catalog entry: where an ingested graph lives.
#[derive(Debug, Clone)]
pub(crate) struct CatalogEntry {
    /// Directory holding `graph.gcsr` and the column files.
    pub(crate) path: PathBuf,
    /// Number of vertices, from the header read at registration.
    pub(crate) vertex_count: u64,
    /// Number of directed edges, from the header read at registration.
    pub(crate) edge_count: u64,
}

/// Registry of ingested on-disk graphs, keyed by content hash.
///
/// A campaign that lists [`DatasetId::Ingested`] coordinates resolves them
/// here: registration reads (and checksums) the on-disk header to learn the
/// hash, and [`DatasetCatalog::load`] mmaps the graph.
#[derive(Debug, Clone, Default)]
pub struct DatasetCatalog {
    entries: HashMap<GraphHash, CatalogEntry>,
}

impl DatasetCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the on-disk graph at `path`. Returns its content hash, read
    /// from the checksummed header.
    pub fn register(&mut self, path: impl AsRef<Path>) -> Result<GraphHash, DiskCsrError> {
        let path = path.as_ref().to_path_buf();
        let header = ingest::read_header(&path)?;
        let hash = GraphHash(header.content_hash);
        self.entries.insert(
            hash,
            CatalogEntry {
                path,
                vertex_count: header.vertex_count,
                edge_count: header.edge_count,
            },
        );
        Ok(hash)
    }

    /// Looks up a registered graph, with the error [`DatasetCatalog::load`]
    /// reports for an unregistered hash.
    pub(crate) fn entry(&self, hash: GraphHash) -> Result<&CatalogEntry, DiskCsrError> {
        self.entries.get(&hash).ok_or_else(|| {
            DiskCsrError::Corrupt(format!(
                "graph {hash} is not registered in the dataset catalog"
            ))
        })
    }

    /// Opens a registered graph: mmaps its column files, checks the header,
    /// the column sizes and [the CSR structure](ingest::MappedCsr::check_structure)
    /// (not the column checksums), and serves adjacency slices in place.
    pub fn load(&self, hash: GraphHash) -> Result<Arc<dyn GraphView>, DiskCsrError> {
        let graph = ingest::MappedCsr::open(&self.entry(hash)?.path)?;
        graph.check_structure()?;
        Ok(Arc::new(graph))
    }
}

/// A generated dataset: the graph plus its provenance.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which of the paper's datasets this stands in for.
    pub kind: DatasetKind,
    /// The scale it was generated at.
    pub scale: Scale,
    /// The graph itself.
    pub graph: Csr,
}

impl Dataset {
    /// Table I-style skew report (in- and out-edge directions).
    pub fn skew(&self) -> (SkewReport, SkewReport) {
        (
            SkewReport::for_in_edges(&self.graph),
            SkewReport::for_out_edges(&self.graph),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper() {
        let labels: Vec<&str> = DatasetKind::ALL.iter().map(|d| d.label()).collect();
        assert_eq!(labels, vec!["lj", "pl", "tw", "kr", "sd", "fr", "uni"]);
    }

    #[test]
    fn high_skew_and_adversarial_partition_all() {
        assert_eq!(
            DatasetKind::HIGH_SKEW.len() + DatasetKind::ADVERSARIAL.len(),
            DatasetKind::ALL.len()
        );
        for kind in DatasetKind::ALL {
            assert_ne!(
                DatasetKind::HIGH_SKEW.contains(&kind),
                DatasetKind::ADVERSARIAL.contains(&kind),
                "{kind:?} is in exactly one of the two lists"
            );
        }
        assert_eq!(
            DatasetKind::ADVERSARIAL,
            [DatasetKind::Friendster, DatasetKind::Uniform]
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = DatasetKind::Twitter.generate(Scale::Tiny);
        let b = DatasetKind::Twitter.generate(Scale::Tiny);
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    fn scales_grow() {
        assert!(Scale::Tiny.vertices() < Scale::Small.vertices());
        assert!(Scale::Small.vertices() < Scale::Medium.vertices());
        assert!(Scale::Medium.vertices() < Scale::Large.vertices());
        assert!(Scale::Small.llc_bytes() <= Scale::Large.llc_bytes());
        let h = Scale::Small.hierarchy();
        assert_eq!(h.llc.size_bytes, Scale::Small.llc_bytes());
    }

    #[test]
    fn skew_ordering_mirrors_table_i() {
        // Table I: kr is the most skewed (9% hot vertices, 93% edge
        // coverage); uni has essentially no skew; fr sits in between the
        // high-skew datasets and uni.
        let scale = Scale::Small;
        let kr = DatasetKind::Kron.build(scale);
        let tw = DatasetKind::Twitter.build(scale);
        let fr = DatasetKind::Friendster.build(scale);
        let uni = DatasetKind::Uniform.build(scale);
        let idx = |d: &Dataset| {
            let (in_skew, _) = d.skew();
            in_skew.edge_coverage_pct() - in_skew.hot_vertices_pct()
        };
        assert!(idx(&kr) > idx(&fr), "kr {} fr {}", idx(&kr), idx(&fr));
        assert!(idx(&tw) > idx(&fr), "tw {} fr {}", idx(&tw), idx(&fr));
        assert!(idx(&fr) > idx(&uni), "fr {} uni {}", idx(&fr), idx(&uni));
        // High-skew datasets: a minority of hot vertices covers a large
        // majority of edges.
        for d in [&kr, &tw] {
            let (in_skew, _) = d.skew();
            assert!(in_skew.hot_vertices_pct() < 40.0);
            assert!(in_skew.edge_coverage_pct() > 60.0);
        }
        // Uniform: around half the vertices are "hot" — no exploitable skew.
        let (uni_in, _) = uni.skew();
        assert!(uni_in.hot_vertices_pct() > 35.0);
    }

    #[test]
    fn scale_from_env_parses_known_values() {
        // Not setting the variable in-process (tests run in parallel);
        // only check the default path is sane.
        let s = Scale::from_env();
        assert!(matches!(
            s,
            Scale::Tiny | Scale::Small | Scale::Medium | Scale::Large
        ));
    }

    #[test]
    fn display_uses_label() {
        assert_eq!(DatasetKind::Kron.to_string(), "kr");
    }

    #[test]
    fn load_rejects_columns_that_break_the_csr_structure() {
        let dir = std::env::temp_dir().join(format!("grasp-catalog-csr-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let graph = DatasetKind::Uniform.generate(Scale::Tiny);
        ingest::write_disk_csr(&graph, &dir).unwrap();
        let mut catalog = DatasetCatalog::new();
        let hash = catalog.register(&dir).unwrap();
        assert!(catalog.load(hash).is_ok());
        // A target past the vertex count (which `relabel` would index
        // with), then an offset past its successor; header and sizes intact.
        for (file, at, bytes) in [
            ("out.targets", 0, &u32::MAX.to_le_bytes()[..]),
            ("in.offsets", 8, &u64::MAX.to_le_bytes()[..]),
        ] {
            let path = dir.join(file);
            let good = std::fs::read(&path).unwrap();
            let mut bad = good.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(catalog.load(hash), Err(DiskCsrError::Corrupt(_))),
                "{file}"
            );
            std::fs::write(&path, &good).unwrap();
        }
        assert!(catalog.load(hash).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
