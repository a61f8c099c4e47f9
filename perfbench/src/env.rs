//! Where the harness runs and on what: repository paths, the scratch
//! directory, and the hardware metadata printed with every result.

use grasp_core::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The repository root: the parent of this package's directory. The harness
/// changes into it on start, so every path below is relative to it and the
/// daemon's Unix-socket path stays well under the 108-byte `sun_path` limit.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repository root")
        .to_path_buf()
}

/// Cargo's target directory as seen from the repository root
/// (`CARGO_TARGET_DIR`, else `target`). Must be called before the harness
/// changes directory: a relative `CARGO_TARGET_DIR` is relative to the
/// directory cargo was invoked from.
pub fn target_dir(root: &Path) -> PathBuf {
    let dir = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::path::absolute(PathBuf::from(dir)).expect("current directory exists"),
        None => root.join("target"),
    };
    match dir.strip_prefix(root) {
        Ok(relative) => relative.to_path_buf(),
        Err(_) => dir,
    }
}

/// Builds the daemon binary from source (`cargo build --release -p xtask` in
/// the repository workspace) and returns its path. The serve workload fails
/// loudly when it cannot: measuring a stale or absent daemon is worse than
/// not measuring.
pub fn build_xtask(target: &Path) -> Result<PathBuf, String> {
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["build", "--quiet", "--release", "--offline", "-p", "xtask"])
        .env("CARGO_TARGET_DIR", target)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo to build the xtask daemon: {e}"))?;
    if !status.success() {
        return Err(format!("building the xtask daemon failed ({status})"));
    }
    let binary = target.join("release").join("xtask");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!(
            "{} is missing after a successful build",
            binary.display()
        ))
    }
}

/// First line of a command's stdout, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets the kernel's peak-RSS watermark so each workload reports its own
/// peak (best effort; needs a writable `/proc/self/clear_refs`).
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Meta {
    pub available_parallelism: usize,
    pub pinned_threads: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    pub seed: u64,
    pub scale: String,
    pub seconds: f64,
    pub min_repetitions: usize,
}

impl Meta {
    pub fn collect(
        pinned_threads: usize,
        seed: u64,
        scale: &str,
        seconds: f64,
        min_reps: usize,
    ) -> Self {
        Self {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pinned_threads,
            cpu_model: cpu_model(),
            rustc: first_line_of("rustc", &["--version"]),
            git_commit: first_line_of("git", &["rev-parse", "HEAD"]),
            seed,
            scale: scale.to_owned(),
            seconds,
            min_repetitions: min_reps,
        }
    }

    pub fn print(&self) {
        println!("pipeline benchmark");
        println!(
            "  hardware   {} hardware thread(s), {}",
            self.available_parallelism, self.cpu_model
        );
        println!(
            "  pinned     {} worker thread(s) per campaign, 2 serve clients",
            self.pinned_threads
        );
        println!("  toolchain  {}", self.rustc);
        println!("  commit     {}", self.git_commit);
        println!(
            "  run        seed {}, scale {}, {} s per pass, >= {} timed repetitions after 1 warm-up",
            self.seed, self.scale, self.seconds, self.min_repetitions
        );
        if self.available_parallelism < self.pinned_threads {
            println!(
                "  WARNING    {} pinned threads on {} hardware thread(s): workers time-share, \
                 parallel timings are not comparable with a {}-thread box",
                self.pinned_threads, self.available_parallelism, self.pinned_threads
            );
        }
    }

    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "available_parallelism",
                Json::integer(self.available_parallelism as u64),
            ),
            ("pinned_threads", Json::integer(self.pinned_threads as u64)),
            ("cpu_model", Json::string(self.cpu_model.clone())),
            ("rustc", Json::string(self.rustc.clone())),
            ("git_commit", Json::string(self.git_commit.clone())),
            ("seed", Json::integer(self.seed)),
            ("scale", Json::string(self.scale.clone())),
            ("seconds", Json::Number(self.seconds)),
            (
                "min_repetitions",
                Json::integer(self.min_repetitions as u64),
            ),
        ])
    }
}
