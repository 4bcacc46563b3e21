//! Starting and stopping `hicond serve --listen` processes.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest a server may take to print its `listening` line.
const START_TIMEOUT: Duration = Duration::from_secs(120);

/// A running server. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    /// Drains the server's stdout until the process exits.
    stdout: Option<JoinHandle<()>>,
    /// A cache directory of this server's own, removed after it stops.
    own_cache: Option<PathBuf>,
    pub addr: String,
}

impl Server {
    /// Spawns `hicond serve <graph> --listen 127.0.0.1:0` with `env` and
    /// the cache in `cache_dir`; returns once it prints `listening`,
    /// with the seconds from spawn to that line. Inherited `HICOND_*`
    /// variables are removed so only `env` configures the server. With
    /// `own_cache`, the cache directory is removed when the server stops.
    pub fn start(
        bin: &Path,
        graph: &Path,
        cache_dir: &Path,
        own_cache: bool,
        env: &[(&str, String)],
        log: &Path,
    ) -> Result<(Server, f64), String> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg(graph)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?);
        for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("HICOND_")) {
            cmd.env_remove(k);
        }
        cmd.env("HICOND_CACHE_DIR", cache_dir);
        for (k, v) in env {
            cmd.env(k, v);
        }
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let out = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let stdout = std::thread::spawn(move || {
            let mut r = BufReader::new(out);
            let mut line = String::new();
            while r.read_line(&mut line).unwrap_or(0) > 0 {
                if let Some(addr) = line.trim().strip_prefix("listening ") {
                    let _ = tx.send((addr.to_string(), Instant::now()));
                    break;
                }
                line.clear();
            }
            // Keep draining so the server never blocks on a full pipe.
            let _ = std::io::copy(&mut r, &mut std::io::sink());
        });
        let mut server = Server {
            child,
            stdout: Some(stdout),
            own_cache: own_cache.then(|| cache_dir.to_path_buf()),
            addr: String::new(),
        };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok((addr, at)) => {
                server.addr = addr;
                Ok((server, at.duration_since(t0).as_secs_f64()))
            }
            Err(_) => {
                drop(server);
                let tail = std::fs::read_to_string(log).unwrap_or_default();
                Err(format!("server did not start listening; its log:\n{tail}"))
            }
        }
    }

    /// Peak resident set size (`VmHWM`) of the server so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(self.child.id())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        if let Some(dir) = self.own_cache.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// `VmHWM` of process `pid` in MiB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading status of {pid}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM for process {pid}"))
}
