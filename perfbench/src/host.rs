//! Host fingerprint printed with every result. Two results are
//! comparable only when their fingerprints match (the source hash
//! aside, which names the code under test).

use std::path::Path;
use std::process::Command;

/// Hardware threads this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .trim()
        .to_string()
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `L1d:32K L1i:32K L2:1024K L3:…` from cpu0's sysfs cache entries.
fn caches() -> String {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let size = read(&format!("{dir}/size"));
        if size.is_empty() {
            break;
        }
        let kind = match read(&format!("{dir}/type")).as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{}{kind}:{size}", read(&format!("{dir}/level"))));
    }
    out.join(" ")
}

fn rustc() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The git commit when run from a clone; otherwise a 64-bit FNV-1a hash
/// of the program's sources (manifests, lock file, and every file under
/// `src/`, `crates/` and `vendor/`, in path order).
fn commit(root: &Path) -> String {
    if let Ok(o) = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
    {
        if o.status.success() {
            return String::from_utf8_lossy(&o.stdout).trim().to_string();
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for d in ["src", "crates", "vendor"] {
        collect(&root.join(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let name = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for byte in name.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("source-fnv64:{h:016x}")
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// (total, steal) jiffies of all CPUs from `/proc/stat`. Steal is time
/// the hypervisor ran something else while this VM wanted the CPU; it
/// is printed with every result because it slows every timing.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = read("/proc/stat");
    let v: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (v.iter().take(8).sum(), v.get(7).copied().unwrap_or(0))
}

/// Share of CPU time stolen since `start` (from [`cpu_ticks`]).
pub fn steal_since(start: (u64, u64)) -> f64 {
    let (total, steal) = cpu_ticks();
    steal.saturating_sub(start.1) as f64 / total.saturating_sub(start.0).max(1) as f64
}

/// The fingerprint as one JSON object.
pub fn fingerprint(root: &Path, pool_width: usize) -> String {
    let q = |s: String| format!("{s:?}");
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"caches\": {}, \"kernel\": {}, \"rustc\": {}, \"pool_width\": {pool_width}, \"commit\": {}}}",
        nproc(),
        q(cpu_model()),
        q(caches()),
        q(read("/proc/sys/kernel/osrelease")),
        q(rustc()),
        q(commit(root)),
    )
}

/// Busy-loops at the idle scheduling class (`SCHED_IDLE`) until
/// `argv[1]` seconds pass or its parent is gone.
const SPIN: &str = "
import os, sys, time
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent, end = os.getppid(), time.monotonic() + float(sys.argv[1])
while time.monotonic() < end and os.getppid() == parent:
    pass
";

/// One idle-class spinner process per CPU. A spinner runs only when no
/// other thread wants its CPU and yields to any woken thread at once,
/// so the CPUs never idle: on a virtual machine an idle CPU goes back
/// to the host, and a thread woken on it waits until the host runs
/// that CPU again. Dropping the value stops the spinners and waits for
/// them.
pub struct Spinners(Vec<std::process::Child>);

impl Spinners {
    pub fn start(count: usize, secs: f64) -> Result<Spinners, String> {
        let mut s = Spinners(Vec::with_capacity(count));
        for _ in 0..count {
            let child = Command::new("python3")
                .args(["-c", SPIN, &secs.to_string()])
                .stdin(std::process::Stdio::null())
                .stdout(std::process::Stdio::null())
                .spawn()
                .map_err(|e| format!("spawning a spinner: {e}"))?;
            s.0.push(child);
        }
        Ok(s)
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
        }
        for c in &mut self.0 {
            let _ = c.wait();
        }
    }
}
