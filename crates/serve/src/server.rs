//! The campaign daemon: accept loop, per-connection handlers, shutdown.

use crate::gate::AdmissionGate;
use crate::protocol::{self, Request};
use grasp_core::campaign::Campaign;
use grasp_core::datasets::DatasetId;
use grasp_core::json::Json;
use grasp_core::spec::CampaignSpec;
use grasp_core::{Error, FlightRegistry, TraceStore};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// How a [`Server`] is wired: where it listens, how many campaigns it runs
/// and queues at once, and whether (and how large) it persists recordings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-socket path the daemon listens on. A stale socket file from a
    /// dead daemon is removed at bind time.
    pub socket: PathBuf,
    /// Campaigns run concurrently; further runs queue. At least 1.
    pub max_campaigns: usize,
    /// Runs parked behind the active campaigns before new runs are
    /// rejected with `service/overloaded`.
    pub queue_depth: usize,
    /// Trace-store directory shared by every campaign the daemon runs
    /// (created if missing). `None` serves without persistence — streams
    /// are still deduplicated in flight, but nothing outlives the daemon.
    pub store: Option<PathBuf>,
    /// Store byte budget: after each campaign the store is swept back
    /// under this size, evicting least-recently-used entries.
    pub store_budget: Option<u64>,
}

impl ServeConfig {
    /// A config listening on `socket` with the defaults: two concurrent
    /// campaigns, a queue of four, no persistence.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            max_campaigns: 2,
            queue_depth: 4,
            store: None,
            store_budget: None,
        }
    }
}

/// Shared daemon state: one trace store, one single-flight registry and
/// one admission gate across every connection.
struct Daemon {
    config: ServeConfig,
    store: Option<Arc<TraceStore>>,
    flights: Arc<FlightRegistry>,
    gate: AdmissionGate,
    running: AtomicBool,
    /// Connection threads the accept loop has not reaped yet, as of its
    /// last accept (for the tests; not on the wire).
    unreaped: AtomicUsize,
}

/// Longest request line the daemon buffers, newline included: a thousand
/// times the largest real spec. A client that sends more without a newline
/// is answered [`protocol::KIND_TOO_LARGE`] and hung up on.
const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// A bound campaign service. [`Server::bind`] claims the socket and opens
/// the store; [`Server::run`] serves until a client sends `shutdown`.
pub struct Server {
    listener: UnixListener,
    daemon: Arc<Daemon>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("socket", &self.daemon.config.socket)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Claims `config.socket` (removing a stale socket file first) and
    /// opens the trace store if one is configured.
    pub fn bind(config: ServeConfig) -> Result<Self, Error> {
        let store = match &config.store {
            Some(dir) => Some(Arc::new(
                TraceStore::open(dir.clone()).map_err(Error::from)?,
            )),
            None => None,
        };
        std::fs::remove_file(&config.socket).ok();
        let listener = UnixListener::bind(&config.socket).map_err(Error::from)?;
        let gate = AdmissionGate::new(config.max_campaigns, config.queue_depth);
        Ok(Self {
            listener,
            daemon: Arc::new(Daemon {
                config,
                store,
                flights: Arc::new(FlightRegistry::new()),
                gate,
                running: AtomicBool::new(true),
                unreaped: AtomicUsize::new(0),
            }),
        })
    }

    /// The socket path the server is listening on.
    pub fn socket(&self) -> &Path {
        &self.daemon.config.socket
    }

    /// Serves connections until a `shutdown` request arrives, then drains
    /// in-flight connections, removes the socket file and returns.
    pub fn run(self) -> std::io::Result<()> {
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if !self.daemon.running.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            // Reap what has finished, so a long-lived daemon holds handles
            // for its live connections only, not for every ping it ever
            // answered.
            workers.retain(|worker| !worker.is_finished());
            let daemon = Arc::clone(&self.daemon);
            workers.push(std::thread::spawn(move || {
                handle_connection(&daemon, stream)
            }));
            self.daemon.unreaped.store(workers.len(), Ordering::Relaxed);
        }
        for worker in workers {
            worker.join().ok();
        }
        std::fs::remove_file(&self.daemon.config.socket).ok();
        Ok(())
    }
}

/// Writes one frame line; returns whether the client is still listening.
fn write_frame(stream: &mut impl Write, frame: &Json) -> bool {
    let mut line = frame.to_string();
    line.push('\n');
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.flush())
        .is_ok()
}

fn handle_connection(daemon: &Daemon, stream: UnixStream) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(reader) => reader,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut line = String::new();
    if (&mut reader)
        .take(MAX_REQUEST_BYTES)
        .read_line(&mut line)
        .is_err()
    {
        return;
    }
    if line.len() as u64 == MAX_REQUEST_BYTES && !line.ends_with('\n') {
        let message = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
        write_frame(
            &mut writer,
            &protocol::error_frame(protocol::KIND_TOO_LARGE, &message),
        );
        return;
    }
    match protocol::parse_request(line.trim_end()) {
        Err((kind, message)) => {
            write_frame(&mut writer, &protocol::error_frame(&kind, &message));
        }
        Ok(Request::Ping) => {
            write_frame(&mut writer, &Json::object([("type", Json::string("pong"))]));
        }
        Ok(Request::Stats) => {
            let frame = protocol::stats_frame(
                daemon.flights.stats(),
                daemon.store.as_ref().map(|s| s.stats()),
                daemon.gate.active(),
                daemon.gate.waiting(),
            );
            write_frame(&mut writer, &frame);
        }
        Ok(Request::Shutdown) => {
            daemon.running.store(false, Ordering::SeqCst);
            write_frame(&mut writer, &Json::object([("type", Json::string("bye"))]));
            // Poke the accept loop so it observes the cleared flag instead
            // of blocking on the next client forever.
            UnixStream::connect(&daemon.config.socket).ok();
        }
        Ok(Request::Run(spec)) => run_campaign(daemon, &mut writer, *spec),
    }
}

/// Serves one admitted run request: builds the campaign on the daemon's
/// store + single-flight registry, streams `cell` frames as cells complete
/// and closes with a `done` frame.
fn run_campaign(daemon: &Daemon, writer: &mut UnixStream, spec: CampaignSpec) {
    if spec
        .datasets
        .iter()
        .any(|d| matches!(d, DatasetId::Ingested(_)))
    {
        let frame = protocol::error_frame(
            "spec/invalid",
            "ingested datasets need a graph catalog; the service runs synthetic datasets only",
        );
        write_frame(writer, &frame);
        return;
    }
    // The daemon owns persistence: the spec's own store choice is for
    // library runs, service campaigns all share the daemon's store so
    // single-flight and eviction see every recording.
    let mut local = spec;
    local.store = None;
    let campaign = match Campaign::from_spec(&local) {
        Ok(campaign) => campaign,
        Err(err) => {
            write_frame(
                writer,
                &protocol::error_frame(err.kind(), &format!("{err}")),
            );
            return;
        }
    };
    let campaign = match &daemon.store {
        Some(store) => campaign.with_trace_store(Arc::clone(store)),
        None => campaign,
    };
    let campaign = campaign.with_single_flight(Arc::clone(&daemon.flights));

    let permit = match daemon.gate.admit() {
        Ok(permit) => permit,
        Err(overloaded) => {
            let frame = protocol::error_frame(protocol::KIND_OVERLOADED, &format!("{overloaded}"));
            write_frame(writer, &frame);
            return;
        }
    };
    let cells = local.cells().len();
    let streams = local.streams().len();
    if !write_frame(writer, &protocol::accepted_frame(cells, streams)) {
        return;
    }

    // Cell frames are written from whichever scheduler worker finishes the
    // cell, so the socket writer hands out frames under a lock. A client
    // that hangs up mid-run stops the stream but never the campaign (its
    // recordings may be serving other clients' flights).
    let sink = Mutex::new((writer, true));
    let result = campaign.run_with_observer(&|index, run| {
        let mut guard = sink.lock().expect("frame sink not poisoned");
        if guard.1 {
            let live = write_frame(&mut *guard.0, &protocol::cell_frame(index, run));
            guard.1 = live;
        }
    });

    let frame = protocol::done_frame(
        result.len(),
        protocol::Census::of(result.scheduler_events()),
        daemon.store.as_ref().map(|s| s.stats()),
    );
    {
        let mut guard = sink.lock().expect("frame sink not poisoned");
        if guard.1 {
            write_frame(&mut *guard.0, &frame);
        }
    }
    drop(permit);

    // Sweep the store back under budget after the campaign published its
    // recordings, so the store never grows without bound under a daemon
    // that serves many distinct grids.
    if let (Some(store), Some(budget)) = (&daemon.store, daemon.config.store_budget) {
        if let Err(err) = store.gc(budget) {
            eprintln!("grasp-serve: store sweep failed: {err}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    #[test]
    fn finished_connections_are_reaped_while_serving() {
        let socket =
            std::env::temp_dir().join(format!("grasp-serve-reap-{}.sock", std::process::id()));
        let server = Server::bind(ServeConfig::new(&socket)).expect("bind");
        let daemon = Arc::clone(&server.daemon);
        let serving = std::thread::spawn(move || server.run().expect("serve"));
        let mut peak = 0;
        for _ in 0..200 {
            let frames = client::request(&socket, &protocol::simple_request("ping")).expect("ping");
            assert_eq!(frames.len(), 1);
            peak = peak.max(daemon.unreaped.load(Ordering::Relaxed));
        }
        // Each ping's thread is done by the time the next few connect; an
        // accept loop that only joined at shutdown would hold all 200.
        assert!(peak <= 16, "{peak} connection threads held at once");
        client::request(&socket, &protocol::simple_request("shutdown")).expect("bye");
        serving.join().expect("daemon thread");
    }
}
