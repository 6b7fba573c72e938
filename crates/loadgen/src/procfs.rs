//! Host shape and process accounting, read from `/proc` by pure parsers
//! under test — except the process's CPU time, whose `/proc` figure is
//! too coarse and which comes from `clock_gettime`.

use std::path::Path;

/// `struct timespec` as 64-bit Linux lays it out.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    /// `clock_gettime(2)` of the C library `std` already links.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time this process (all threads, including ones that
/// have exited) has used so far, in milliseconds. Read from the
/// process's CPU-time clock, which counts nanoseconds: the same total
/// in `/proc/self/stat` comes in ticks of 10 ms, a tenth of what a slice
/// of the slower workloads uses.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ms() -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` — two 64-bit
    // fields on every target the `cfg` above admits — and the call
    // writes nothing but it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6)
}

/// Where that clock is not declared, CPU time goes unreported.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_ms() -> Option<f64> {
    None
}

/// The value in KiB of a `Key:   <n> kB` line of `/proc/<pid>/status`.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_kib(&status, "VmHWM")? as f64 / 1024.0)
}

/// Resets the kernel's peak-RSS watermark to the current RSS, so that
/// `VmHWM` read later covers one workload, not every workload the
/// process has run. Best effort: where `/proc/self/clear_refs` is not
/// writable the watermark simply keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Filesystem type of the mount that holds `path`, from the text of
/// `/proc/<pid>/mounts`: the longest mount point that is a path-prefix
/// of `path` wins, later lines win ties (they shadow earlier mounts).
pub fn parse_mounts_fs_type(mounts: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut f = line.split_ascii_whitespace();
        let (Some(_dev), Some(point), Some(fstype)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        // Mount points escape space, tab, newline and backslash in octal.
        let point = point
            .replace("\\040", " ")
            .replace("\\011", "\t")
            .replace("\\012", "\n")
            .replace("\\134", "\\");
        if path.starts_with(&point) {
            let depth = Path::new(&point).components().count();
            if best.is_none_or(|(d, _)| depth >= d) {
                best = Some((depth, fstype));
            }
        }
    }
    best.map(|(_, t)| t.to_string())
}

/// Filesystem type under `path` (`"unknown"` when `/proc` cannot say).
pub fn fs_type_of(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/self/mounts")
        .ok()
        .and_then(|m| parse_mounts_fs_type(&m, &abs))
        .unwrap_or_else(|| String::from("unknown"))
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc --version` of the toolchain on `PATH` (`"unknown"` if absent).
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| String::from("unknown"), |s| s.trim().to_string())
}

/// The checked-out commit, read from `.git` under `root` without
/// spawning git (`"unknown"` outside a repository — the driver's
/// checkouts are plain directories).
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return String::from("unknown"),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head; // detached HEAD holds the hash itself
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| String::from("unknown"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_key_is_matched_exactly() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_kib(status, "VmH"), None);
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
    }

    #[test]
    fn longest_mount_prefix_wins_and_later_lines_shadow() {
        let mounts = "/dev/vda / ext4 rw 0 0\n\
                      tmpfs /tmp tmpfs rw 0 0\n\
                      /dev/vdb /tmp/with\\040space xfs rw 0 0\n\
                      overlay / overlay rw 0 0\n";
        let t = |p: &str| parse_mounts_fs_type(mounts, Path::new(p));
        assert_eq!(t("/tmp/x/y").as_deref(), Some("tmpfs"));
        assert_eq!(t("/tmp/with space/f").as_deref(), Some("xfs"));
        assert_eq!(t("/tmpfile").as_deref(), Some("overlay"));
        assert_eq!(t("/root/repo").as_deref(), Some("overlay"));
        assert_eq!(parse_mounts_fs_type("", Path::new("/")), None);
    }

    #[test]
    fn live_readers_answer_on_linux() {
        let before = process_cpu_ms().expect("the CPU-time clock");
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(
            process_cpu_ms().unwrap() > before,
            "burning CPU moved nothing"
        );
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        assert!(nproc() >= 1);
        assert!(!fs_type_of(Path::new(".")).is_empty());
    }
}
