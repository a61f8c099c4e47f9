//! End-to-end service tests over real Unix sockets: single-flight
//! deduplication across concurrent clients, warm-store replays, stable
//! error frames for malformed requests, admission control and clean
//! shutdown.

use grasp_core::campaign::Campaign;
use grasp_core::datasets::{DatasetKind, Scale};
use grasp_core::json::Json;
use grasp_core::policy::PolicyKind;
use grasp_core::spec::CampaignSpec;
use grasp_reorder::TechniqueKind;
use grasp_serve::{client, protocol, ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grasp-serve-itest-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("test scratch dir");
    dir
}

/// A 4-cell / 2-stream grid: tw × DBG × {PR, SSSP} × {RRIP, GRASP}.
fn small_grid() -> CampaignSpec {
    let mut spec = CampaignSpec::new(Scale::Tiny);
    spec.datasets = vec![DatasetKind::Twitter.into()];
    spec.techniques = vec![TechniqueKind::Dbg];
    spec.apps = vec![
        grasp_analytics::apps::AppKind::PageRank,
        grasp_analytics::apps::AppKind::Sssp,
    ];
    spec.policies = vec![PolicyKind::Rrip, PolicyKind::Grasp];
    spec.threads = 2;
    spec
}

fn frame_type(frame: &Json) -> &str {
    frame.get("type").and_then(Json::as_str).unwrap_or("?")
}

fn member(frame: &Json, name: &str) -> u64 {
    frame
        .get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("frame lacks numeric member {name:?}: {frame}"))
}

/// Splits a run response into (accepted, cells-by-index, done), asserting
/// the frame grammar on the way.
fn split_run_response(frames: &[Json]) -> (&Json, BTreeMap<u64, &Json>, &Json) {
    let accepted = frames.first().expect("response not empty");
    assert_eq!(frame_type(accepted), "accepted", "{accepted}");
    let done = frames.last().expect("response not empty");
    assert_eq!(frame_type(done), "done", "{done}");
    let mut cells = BTreeMap::new();
    for frame in &frames[1..frames.len() - 1] {
        assert_eq!(frame_type(frame), "cell", "{frame}");
        cells.insert(member(frame, "index"), frame);
    }
    (accepted, cells, done)
}

#[test]
fn concurrent_overlapping_grids_record_each_stream_once() {
    let scratch = temp_dir("flight");
    let socket = scratch.join("daemon.sock");
    let mut config = ServeConfig::new(&socket);
    config.max_campaigns = 4;
    config.store = Some(scratch.join("store"));
    let server = Server::bind(config).expect("bind");
    let daemon = std::thread::spawn(move || server.run().expect("serve"));

    let spec = small_grid();
    let request = protocol::run_request(&spec);
    let clients = 3;
    // All three submit at the same instant, so their campaigns overlap: the
    // first to arrive leads the recordings, which takes it far longer than
    // the others take to be admitted and enlisted.
    let go = std::sync::Barrier::new(clients);
    let responses: Vec<Vec<Json>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    go.wait();
                    client::request(&socket, &request).expect("run request")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Frame grammar and single-flight accounting. RecordFinished is an
    // exact census of executed recordings, so summing the done frames'
    // `recorded` across clients counts real recordings globally — exactly
    // one per unique (dataset, technique, app) stream.
    // The same holds one level down: ReplayFinished is an exact census of
    // executed replays, so `replayed` sums to one per unique cell and every
    // other cell a client was sent is `shared`.
    let mut recorded = 0;
    let mut served = 0;
    let mut replayed = 0;
    let mut shared = 0;
    for frames in &responses {
        let (accepted, cells, done) = split_run_response(frames);
        assert_eq!(member(accepted, "cells"), 4);
        assert_eq!(member(accepted, "streams"), 2);
        assert_eq!(cells.len(), 4, "every grid cell streamed");
        assert_eq!(member(done, "cells"), 4);
        recorded += member(done, "recorded");
        served += member(done, "recorded") + member(done, "deduped") + member(done, "loads");
        assert_eq!(member(done, "replayed") + member(done, "shared"), 4);
        replayed += member(done, "replayed");
        shared += member(done, "shared");
    }
    assert_eq!(recorded, 2, "one recording per unique stream, fleet-wide");
    assert_eq!(served, 6, "every client had each of its 2 streams served");
    assert_eq!(replayed, 4, "one replay per unique cell, fleet-wide");
    assert_eq!(shared, 8, "the other two clients' cells were shared");

    // Every client saw bit-identical per-cell results...
    let reference = &responses[0];
    let (_, reference_cells, _) = split_run_response(reference);
    for frames in &responses[1..] {
        let (_, cells, _) = split_run_response(frames);
        for (index, frame) in &reference_cells {
            assert_eq!(
                cells[index].to_string(),
                frame.to_string(),
                "cell {index} differs between clients"
            );
        }
    }
    // ...identical to what the library produces for the same spec.
    let library = Campaign::from_spec(&spec).expect("library campaign").run();
    for (index, run) in library.iter().enumerate() {
        let expected = protocol::cell_frame(index, run).to_string();
        assert_eq!(
            reference_cells[&(index as u64)].to_string(),
            expected,
            "service cell {index} differs from the library run"
        );
    }

    // The store saw exactly the two cold misses (and nothing corrupt): the
    // deduplicated campaigns attached in flight without touching it.
    let (_, _, done) = split_run_response(&responses[0]);
    let store = done.get("store").expect("daemon persists");
    assert_eq!(member(store, "misses"), 2);
    assert_eq!(member(store, "corrupt"), 0);

    // A warm client replays entirely from the published store.
    let frames = client::request(&socket, &request).expect("warm request");
    let (_, cells, done) = split_run_response(&frames);
    assert_eq!(member(done, "recorded"), 0, "warm pass records nothing");
    assert_eq!(member(done, "loads"), 2, "both streams load from the store");
    // Nobody overlaps it and nothing was retained: it replays every cell.
    assert_eq!(member(done, "replayed"), 4);
    assert_eq!(member(done, "shared"), 0);
    for (index, frame) in &reference_cells {
        assert_eq!(
            cells[index].to_string(),
            frame.to_string(),
            "warm cell {index} differs from the cold run"
        );
    }

    // The stats frame agrees: two flights recorded, the rest shared.
    let frames = client::request(&socket, &protocol::simple_request("stats")).expect("stats");
    assert_eq!(frames.len(), 1);
    let flights = frames[0].get("flights").expect("flight counters");
    assert_eq!(member(flights, "recorded"), 2);
    assert_eq!(member(flights, "cells_replayed"), 4 + 4);
    assert_eq!(member(flights, "cells_shared"), 8);
    assert_eq!(
        member(flights, "cells_inflight"),
        0,
        "no campaign is running"
    );

    let frames = client::request(&socket, &protocol::simple_request("shutdown")).expect("bye");
    assert_eq!(frame_type(&frames[0]), "bye");
    daemon.join().expect("daemon thread");
    assert!(!socket.exists(), "shutdown removes the socket file");
    std::fs::remove_dir_all(&scratch).ok();
}

/// Sends one raw line (not necessarily valid JSON) and returns the frames.
fn raw_request(socket: &Path, line: &str) -> Vec<String> {
    let mut stream = std::os::unix::net::UnixStream::connect(socket).expect("connect");
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send");
    stream.flush().expect("flush");
    BufReader::new(stream)
        .lines()
        .map(|l| l.expect("read frame"))
        .collect()
}

#[test]
fn malformed_requests_get_stable_error_kinds() {
    let scratch = temp_dir("errors");
    let socket = scratch.join("daemon.sock");
    let server = Server::bind(ServeConfig::new(&socket)).expect("bind");
    let daemon = std::thread::spawn(move || server.run().expect("serve"));

    let cases = [
        ("this is not json", "request/invalid"),
        ("{\"spec\":{}}", "request/invalid"),
        ("{\"type\":\"zap\"}", "request/invalid"),
        ("{\"type\":\"run\"}", "request/invalid"),
        (
            "{\"type\":\"run\",\"spec\":{\"scale\":\"galactic\"}}",
            "spec/invalid",
        ),
        (
            // A policy outside the evaluation's roster.
            "{\"type\":\"run\",\"spec\":{\"scale\":\"tiny\",\"policies\":[\"SRRIP\"]}}",
            "spec/invalid",
        ),
        (
            // The retired plan-selection fields are unknown fields now.
            "{\"type\":\"run\",\"spec\":{\"scale\":\"tiny\",\"mode\":\"pipelined\"}}",
            "spec/invalid",
        ),
        (
            "{\"type\":\"run\",\"spec\":{\"scale\":\"tiny\",\"pipelines\":2}}",
            "spec/invalid",
        ),
        (
            // So is the hierarchy override: the scale fixes the hierarchy.
            "{\"type\":\"run\",\"spec\":{\"scale\":\"tiny\",\"hierarchy\":{\
             \"l1\":{\"size_bytes\":32768,\"ways\":8,\"block_bytes\":64},\
             \"l2\":{\"size_bytes\":262144,\"ways\":8,\"block_bytes\":64},\
             \"llc\":{\"size_bytes\":32768,\"ways\":16,\"block_bytes\":64},\
             \"latency\":{\"l1_cycles\":4,\"l2_cycles\":10,\
             \"llc_cycles\":30,\"memory_cycles\":200},\"prefetch\":true}}}",
            "spec/invalid",
        ),
        (
            // Spec-valid, service-refused: ingested datasets need a catalog.
            "{\"type\":\"run\",\"spec\":{\"scale\":\"tiny\",\
             \"datasets\":[\"gdeadbeef01234567\"]}}",
            "spec/invalid",
        ),
    ];
    for (request, expected_kind) in cases {
        let frames = raw_request(&socket, request);
        assert_eq!(frames.len(), 1, "one terminal frame for {request:?}");
        let frame = grasp_core::json::parse(&frames[0]).expect("error frame is valid JSON");
        assert_eq!(frame_type(&frame), "error", "{frame}");
        assert_eq!(
            frame.get("kind").and_then(Json::as_str),
            Some(expected_kind),
            "request {request:?} answered {frame}"
        );
        assert!(
            frame.get("message").and_then(Json::as_str).is_some(),
            "error frames carry a human-readable message"
        );
    }

    // A line nested far deeper than any request is refused by the parser
    // instead of overflowing the stack of the thread reading it, which would
    // abort the daemon and this test with it.
    let frames = raw_request(&socket, &"[".repeat(100_000));
    let frame = grasp_core::json::parse(&frames[0]).expect("error frame is valid JSON");
    assert_eq!(
        frame.get("kind").and_then(Json::as_str),
        Some(protocol::KIND_REQUEST_INVALID),
        "{frame}"
    );
    let frames = client::request(&socket, &protocol::simple_request("ping")).expect("ping");
    assert_eq!(frame_type(&frames[0]), "pong", "a new connection is served");

    // A request line that never ends is cut off at the daemon's cap instead
    // of being buffered for as long as the client cares to send. The daemon
    // hangs up with most of the line unread, so the tail of the send may
    // fail with a broken pipe; the answer is already queued either way.
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
    stream.write_all(&vec![b'x'; 2 << 20]).ok();
    let mut answer = String::new();
    BufReader::new(stream)
        .read_line(&mut answer)
        .expect("the error frame arrives before the hang-up");
    let frame = grasp_core::json::parse(answer.trim_end()).expect("error frame is valid JSON");
    assert_eq!(frame_type(&frame), "error", "{frame}");
    assert_eq!(
        frame.get("kind").and_then(Json::as_str),
        Some(protocol::KIND_TOO_LARGE),
        "{frame}"
    );

    // A liveness probe still answers after all that abuse.
    let frames = client::request(&socket, &protocol::simple_request("ping")).expect("ping");
    assert_eq!(frame_type(&frames[0]), "pong");

    client::request(&socket, &protocol::simple_request("shutdown")).expect("bye");
    daemon.join().expect("daemon thread");
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn a_full_daemon_rejects_runs_with_an_overloaded_frame() {
    let scratch = temp_dir("admission");
    let socket = scratch.join("daemon.sock");
    let mut config = ServeConfig::new(&socket);
    config.max_campaigns = 1;
    config.queue_depth = 0;
    let server = Server::bind(config).expect("bind");
    let daemon = std::thread::spawn(move || server.run().expect("serve"));

    // An 8-cell grid holds the single campaign slot long enough for a
    // second run to bounce off the gate deterministically: the `accepted`
    // frame is only written once the slot is held.
    let mut busy = small_grid();
    busy.datasets = vec![DatasetKind::Twitter.into(), DatasetKind::Kron.into()];
    let request = protocol::run_request(&busy);
    let (started, running) = mpsc::channel();
    let socket_for_holder = socket.clone();
    let holder = std::thread::spawn(move || {
        let mut frames = Vec::new();
        client::request_streaming(&socket_for_holder, &request, &mut |frame| {
            if frame_type(frame) == "accepted" {
                started.send(()).ok();
            }
            frames.push(frame.clone());
        })
        .expect("busy run");
        frames
    });
    running.recv().expect("busy campaign admitted");

    let frames =
        client::request(&socket, &protocol::run_request(&small_grid())).expect("second run");
    assert_eq!(frames.len(), 1, "rejected before any cell streams");
    assert_eq!(frame_type(&frames[0]), "error");
    assert_eq!(
        frames[0].get("kind").and_then(Json::as_str),
        Some(protocol::KIND_OVERLOADED),
        "{}",
        frames[0]
    );

    // The busy campaign finishes untouched by the rejection.
    let frames = holder.join().expect("holder thread");
    let (_, cells, done) = split_run_response(&frames);
    assert_eq!(cells.len(), 8);
    assert_eq!(member(done, "cells"), 8);

    // With the slot free again, the same request is admitted.
    let frames = client::request(&socket, &protocol::run_request(&small_grid())).expect("retry");
    assert_eq!(frame_type(&frames[0]), "accepted");

    client::request(&socket, &protocol::simple_request("shutdown")).expect("bye");
    daemon.join().expect("daemon thread");
    std::fs::remove_dir_all(&scratch).ok();
}
