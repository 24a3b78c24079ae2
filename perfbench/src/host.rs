//! Host facts recorded with every result, and process set-up.

use crate::json::Json;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_ARENA_MAX` from glibc's `<malloc.h>`.
const M_ARENA_MAX: i32 = -8;

/// Cap glibc's malloc arenas at the CPU count. By default each new thread
/// may get an arena of its own, and which arena the server's worker lands
/// in (a fresh one, or one a finished set-up thread left behind) moved
/// the process's peak memory by a fifth between otherwise identical runs.
/// Call before any thread starts.
pub fn cap_malloc_arenas() {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // SAFETY: mallopt only changes allocator tuning; it is called before
    // the process starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, cpus as i32);
    }
}

/// `PR_SET_TIMERSLACK` from `<linux/prctl.h>`.
const PR_SET_TIMERSLACK: i32 = 29;

/// Ask the kernel to wake this process's sleeps within 1 µs of their
/// deadline instead of the default 50 µs slack, so the open-loop sender
/// leaves on schedule without spinning.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes this thread's (and its future children's) timer
    // slack; it touches no memory of ours.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// The filesystem type holding `dir`, from the longest matching mount
/// point in `/proc/mounts`.
pub fn filesystem_of(dir: &Path) -> String {
    let path = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 3 {
            continue;
        }
        let point = fields[1];
        if path.starts_with(point) && best.as_ref().is_none_or(|(len, _)| point.len() > *len) {
            best = Some((point.len(), fields[2].to_string()));
        }
    }
    best.map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median fdatasync latency of a 4 KiB write in `dir`, µs (eleven tries).
pub fn fsync_probe_us(dir: &Path) -> f64 {
    let path = dir.join("fsync-probe");
    let Ok(mut file) = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)
    else {
        return 0.0;
    };
    let block = [0x5au8; 4096];
    let mut times = Vec::new();
    for _ in 0..11 {
        if file.write_all(&block).is_err() {
            break;
        }
        let started = Instant::now();
        if file.sync_data().is_err() {
            break;
        }
        times.push(started.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    let _ = std::fs::remove_file(&path);
    crate::stats::median(&times)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string())
}

/// Host facts: CPUs, kernel, toolchain, commit, the journal directory's
/// filesystem (tmpfs flagged, since its fsync is free) and an fdatasync
/// probe there.
pub fn facts(work_dir: &Path) -> Json {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let fs = filesystem_of(work_dir);
    Json::obj()
        .with("nproc", Json::Int(nproc))
        .with("kernel", Json::Str(kernel))
        .with("rustc", Json::Str(command_line("rustc", &["--version"])))
        .with(
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        )
        .with("journal_fs", Json::Str(fs.clone()))
        .with("journal_fs_is_tmpfs", Json::Bool(fs == "tmpfs"))
        .with("fdatasync_us", Json::Num(fsync_probe_us(work_dir)))
}
