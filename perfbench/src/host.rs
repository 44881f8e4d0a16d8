//! The host record stamped on every result, so numbers from different
//! machines or builds are never compared silently.

use std::fmt::Write as _;
use std::path::Path;

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of this process in MiB, if the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(level, type, size)` of every cache of CPU 0, from sysfs.
fn caches() -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{dir}/{f}"))
                .map(|s| s.trim().to_string())
                .ok()
        };
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        out.push((level, kind, size));
    }
    out
}

/// The commit the checkout was made from, when it is a git checkout.
fn commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// FNV-1a digest of the program's sources (`crates/**/*.rs` and every
/// `Cargo.toml` under `crates/`, in path order): identifies the code under
/// test even where the checkout carries no git metadata.
fn source_digest(root: &Path) -> Option<String> {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    if files.is_empty() {
        return None;
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    Some(format!("{h:016x}"))
}

/// One JSON object describing the host, the build and the parallelism a
/// workload used.
pub fn record(workload: &str, seed: u64, parallelism: &[(&str, usize)]) -> String {
    let root = Path::new(".");
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"nproc\":{},\"simd_enabled\":{}",
        nproc(),
        bpmf_linalg::simd_enabled()
    );
    for (level, kind, size) in caches() {
        let tag = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        let _ = write!(s, ",\"l{level}{tag}\":\"{size}\"");
    }
    for (k, v) in parallelism {
        let _ = write!(s, ",\"{k}\":{v}");
    }
    let quote = |o: Option<String>| o.map_or("null".to_string(), |c| format!("\"{c}\""));
    let _ = write!(
        s,
        ",\"commit\":{},\"source_digest\":{}}}",
        quote(commit(root)),
        quote(source_digest(root))
    );
    s
}
