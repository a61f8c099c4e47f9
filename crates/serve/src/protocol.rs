//! The service wire protocol: newline-delimited JSON frames.
//!
//! A connection carries **one request frame** from the client and a stream
//! of response frames from the daemon, each a single-line JSON object
//! terminated by `\n`; the daemon closes the connection after the terminal
//! frame. Requests:
//!
//! * `{"type":"run","spec":{...}}` — run a campaign grid
//!   ([`CampaignSpec`] wire shape). Responses: one `accepted` frame, one
//!   `cell` frame per grid cell **in completion order**, one terminal
//!   `done` frame.
//! * `{"type":"ping"}` → `{"type":"pong"}`.
//! * `{"type":"stats"}` → a `stats` frame (single-flight, store and
//!   admission counters).
//! * `{"type":"shutdown"}` → `{"type":"bye"}`, then the daemon stops
//!   accepting and drains in-flight campaigns.
//!
//! Any failure is a terminal `{"type":"error","kind":...,"message":...}`
//! frame. `kind` is machine-readable and stable: spec/store/trace/graph
//! failures carry [`grasp_core::Error::kind`] verbatim
//! ([`grasp_core::error`] documents the vocabulary); the three
//! service-level kinds are [`KIND_REQUEST_INVALID`], [`KIND_TOO_LARGE`] and
//! [`KIND_OVERLOADED`].
//!
//! Cell frames identify results exactly — floating-point members are
//! carried as bit patterns (`cycles_bits`) or FNV-1a fingerprints over bit
//! patterns (`values_fnv`), so "the service returns the same result as a
//! library run" is byte-comparable, not approximately-equal.

use grasp_core::campaign::{CampaignRun, SchedulerEvent};
use grasp_core::json::Json;
use grasp_core::spec::{self, CampaignSpec};
use grasp_core::{FlightStats, TraceStoreStats};

/// Error-frame kind for requests the daemon cannot parse at all: bad JSON,
/// a missing or unknown `type`, a missing `spec` member.
pub const KIND_REQUEST_INVALID: &str = "request/invalid";

/// Error-frame kind for a request line longer than the daemon buffers (it
/// never saw the terminating newline, so it never parsed anything).
pub const KIND_TOO_LARGE: &str = "request/too-large";

/// Error-frame kind for runs rejected by admission control (all campaign
/// slots and queue positions taken).
pub const KIND_OVERLOADED: &str = "service/overloaded";

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a campaign grid. Boxed: a spec (four axis vectors plus the
    /// store path) dwarfs the dataless control requests.
    Run(Box<CampaignSpec>),
    /// Liveness probe.
    Ping,
    /// Service counters snapshot.
    Stats,
    /// Stop accepting, drain, exit.
    Shutdown,
}

/// Parses one request line. Errors come back as `(kind, message)` ready
/// for an error frame: structural problems are [`KIND_REQUEST_INVALID`],
/// spec problems keep their `spec/invalid` kind.
pub fn parse_request(line: &str) -> Result<Request, (String, String)> {
    let invalid = |message: String| (KIND_REQUEST_INVALID.to_owned(), message);
    let doc =
        grasp_core::json::parse(line).map_err(|e| invalid(format!("unparseable request: {e}")))?;
    let Some(kind) = doc.get("type").and_then(Json::as_str) else {
        return Err(invalid(
            "request object needs a string \"type\" member".to_owned(),
        ));
    };
    match kind {
        "run" => {
            let Some(spec) = doc.get("spec") else {
                return Err(invalid("run request needs a \"spec\" member".to_owned()));
            };
            let spec = CampaignSpec::from_value(spec)
                .map_err(|e| (e.kind().to_owned(), format!("{e}")))?;
            Ok(Request::Run(Box::new(spec)))
        }
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(invalid(format!("unknown request type {other:?}"))),
    }
}

/// The `run` request frame for a spec (what `cargo xtask client run` sends).
pub fn run_request(spec: &CampaignSpec) -> Json {
    Json::object([("type", Json::string("run")), ("spec", spec.to_value())])
}

/// A bare `{"type": kind}` request frame (`ping` / `stats` / `shutdown`).
pub fn simple_request(kind: &str) -> Json {
    Json::object([("type", Json::string(kind))])
}

/// The terminal error frame.
pub fn error_frame(kind: &str, message: &str) -> Json {
    Json::object([
        ("type", Json::string("error")),
        ("kind", Json::string(kind)),
        ("message", Json::string(message)),
    ])
}

/// The first frame of a run response: the grid was admitted and is
/// running. `cells` and `streams` restate the grid the daemon derived from
/// the spec, so the client can track completion.
pub fn accepted_frame(cells: usize, streams: usize) -> Json {
    Json::object([
        ("type", Json::string("accepted")),
        ("cells", Json::integer(cells as u64)),
        ("streams", Json::integer(streams as u64)),
    ])
}

/// One completed grid cell, emitted in completion order. `index` is the
/// cell's grid index ([`CampaignSpec::cells`] order), so clients can
/// reassemble grid order from the completion stream.
pub fn cell_frame(index: usize, run: &CampaignRun) -> Json {
    Json::object([
        ("type", Json::string("cell")),
        ("index", Json::integer(index as u64)),
        ("dataset", Json::string(run.cell.dataset.slug())),
        ("technique", Json::string(run.cell.technique.label())),
        ("app", Json::string(run.cell.app.label())),
        ("policy", Json::string(spec::policy_wire(run.cell.policy))),
        ("llc_accesses", Json::integer(run.result.llc_accesses())),
        ("llc_misses", Json::integer(run.result.llc_misses())),
        ("cycles_bits", Json::string(f64_bits(run.result.cycles))),
        (
            "values_fnv",
            Json::string(values_fingerprint(&run.result.app.values)),
        ),
        (
            "iterations",
            Json::integer(run.result.app.iterations as u64),
        ),
        (
            "edges_processed",
            Json::integer(run.result.app.edges_processed),
        ),
    ])
}

/// What one campaign's scheduler event log says it did itself and what it
/// was handed: the census members of the `done` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Census {
    /// Recordings this campaign executed.
    pub recorded: u64,
    /// Planned recordings served by another in-flight campaign (the
    /// single-flight dedup).
    pub deduped: u64,
    /// Streams loaded from the trace store.
    pub loads: u64,
    /// Cell replays this campaign executed.
    pub replayed: u64,
    /// Cells served with an overlapping campaign's replay statistics.
    pub shared: u64,
}

impl Census {
    /// Recounts a campaign's event log.
    pub fn of(events: &[SchedulerEvent]) -> Self {
        let mut census = Self::default();
        for event in events {
            match event {
                SchedulerEvent::RecordFinished { .. } => census.recorded += 1,
                SchedulerEvent::RecordDeduped { .. } => census.deduped += 1,
                SchedulerEvent::LoadFinished { .. } => census.loads += 1,
                SchedulerEvent::ReplayFinished { .. } => census.replayed += 1,
                SchedulerEvent::ReplayShared { .. } => census.shared += 1,
                _ => {}
            }
        }
        census
    }
}

/// The terminal frame of a successful run: the cell count, the campaign's
/// [`Census`] and, when the daemon persists, the store's counters.
pub fn done_frame(cells: usize, census: Census, store: Option<TraceStoreStats>) -> Json {
    let mut members = vec![
        ("type", Json::string("done")),
        ("cells", Json::integer(cells as u64)),
        ("recorded", Json::integer(census.recorded)),
        ("deduped", Json::integer(census.deduped)),
        ("loads", Json::integer(census.loads)),
        ("replayed", Json::integer(census.replayed)),
        ("shared", Json::integer(census.shared)),
    ];
    if let Some(stats) = store {
        members.push(("store", store_value(stats)));
    }
    Json::object(members)
}

/// The `stats` response frame: single-flight counters, store counters (when
/// the daemon persists), and the admission gate's live occupancy.
pub fn stats_frame(
    flights: FlightStats,
    store: Option<TraceStoreStats>,
    active: usize,
    waiting: usize,
) -> Json {
    let mut members = vec![
        ("type", Json::string("stats")),
        (
            "flights",
            Json::object([
                ("recorded", Json::integer(flights.recorded)),
                ("store_hits", Json::integer(flights.store_hits)),
                ("attached", Json::integer(flights.attached)),
                ("cells_replayed", Json::integer(flights.cells_replayed)),
                ("cells_shared", Json::integer(flights.cells_shared)),
                ("cells_inflight", Json::integer(flights.cells_inflight)),
            ]),
        ),
        ("active", Json::integer(active as u64)),
        ("waiting", Json::integer(waiting as u64)),
    ];
    if let Some(stats) = store {
        members.push(("store", store_value(stats)));
    }
    Json::object(members)
}

fn store_value(stats: TraceStoreStats) -> Json {
    Json::object([
        ("hits", Json::integer(stats.hits)),
        ("misses", Json::integer(stats.misses)),
        ("corrupt", Json::integer(stats.corrupt)),
        ("bytes_read", Json::integer(stats.bytes_read)),
        ("bytes_written", Json::integer(stats.bytes_written)),
    ])
}

/// An `f64` as its exact bit pattern (16 lowercase hex digits).
pub fn f64_bits(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

/// FNV-1a (64-bit) over the bit patterns of a value vector — an exact
/// fingerprint of an application's output without shipping every value.
pub fn values_fingerprint(values: &[f64]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for value in values {
        for byte in value.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_core::datasets::Scale;

    #[test]
    fn requests_round_trip_through_their_frames() {
        let mut spec = CampaignSpec::new(Scale::Tiny);
        spec.threads = 2;
        let frame = run_request(&spec).to_string();
        match parse_request(&frame).expect("run parses") {
            Request::Run(parsed) => assert_eq!(*parsed, spec),
            other => panic!("expected a run request, got {other:?}"),
        }
        for (kind, expected) in [
            ("ping", Request::Ping),
            ("stats", Request::Stats),
            ("shutdown", Request::Shutdown),
        ] {
            let frame = simple_request(kind).to_string();
            assert_eq!(parse_request(&frame).expect("parses"), expected);
        }
    }

    #[test]
    fn structural_problems_are_request_invalid() {
        for bad in ["", "{", "[1,2]", "{\"spec\":{}}", "{\"type\":\"zap\"}"] {
            let (kind, _) = parse_request(bad).expect_err("rejected");
            assert_eq!(kind, KIND_REQUEST_INVALID, "input {bad:?}");
        }
        let (kind, _) = parse_request("{\"type\":\"run\"}").expect_err("spec required");
        assert_eq!(kind, KIND_REQUEST_INVALID);
    }

    #[test]
    fn spec_problems_keep_their_spec_invalid_kind() {
        let (kind, message) = parse_request("{\"type\":\"run\",\"spec\":{\"scale\":\"galactic\"}}")
            .expect_err("bad scale rejected");
        assert_eq!(kind, "spec/invalid");
        assert!(message.contains("galactic"), "{message}");
    }

    #[test]
    fn fingerprints_are_exact_bit_functions() {
        assert_eq!(f64_bits(1.0), "3ff0000000000000");
        assert_ne!(f64_bits(0.0), f64_bits(-0.0), "sign bit distinguishes");
        assert_eq!(values_fingerprint(&[]), "cbf29ce484222325");
        assert_eq!(
            values_fingerprint(&[1.0, 2.0]),
            values_fingerprint(&[1.0, 2.0])
        );
        assert_ne!(
            values_fingerprint(&[1.0, 2.0]),
            values_fingerprint(&[2.0, 1.0]),
            "order matters"
        );
    }
}
