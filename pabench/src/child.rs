//! Child processes: the program under test is only ever run as a child,
//! fed generated files and request bytes.
//!
//! Every child is owned by a guard that kills and reaps it on drop, so
//! a panic in the rig leaves no daemon behind. Daemons listen on
//! ephemeral ports scraped from their announce lines, log at `error`
//! (silent when healthy) into a file in the work directory, and have
//! their stdout drained to the end.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest the rig waits for one response, one daemon start or one
/// batch child: a wedged child fails the run instead of hanging it.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Linux reports process CPU time in units of 1/100 s to user space
/// (`USER_HZ`), whatever the kernel's own tick.
const TICK_US: u64 = 10_000;

/// The run's scratch directory, `<out>/<pid>/`, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `<out>/<pid>/`.
    pub fn create(out: &Path) -> Result<WorkDir, String> {
        let dir = out.join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn proc_field_kb(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) of `pid`, in MB.
fn peak_rss_mb(pid: u32) -> Option<f64> {
    proc_field_kb(pid, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// User plus system CPU time consumed by `pid`, in microseconds.
fn cpu_us(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * TICK_US)
}

/// A `pathalias serve` child and the addresses it announced.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// TCP address from `listening on tcp`.
    pub tcp: SocketAddr,
    /// UDP address from `listening on udp`, when started with `--udp`.
    pub udp: Option<SocketAddr>,
}

impl Daemon {
    /// Spawns `bin serve <args> --listen 127.0.0.1:0 --workers 1` and
    /// waits for its announce lines. The daemon answers requests once
    /// this returns.
    pub fn spawn(bin: &Path, args: &[String], stderr: &Path) -> Result<Daemon, String> {
        let log =
            File::create(stderr).map_err(|e| format!("creating {}: {e}", stderr.display()))?;
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .args(["--listen", "127.0.0.1:0", "--workers", "1"])
            .env("PATHALIAS_LOG", "error")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel::<String>();
        // Reads to end of file, so the daemon never blocks on a full
        // pipe; lines after the announcement are dropped.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            drain: Some(drain),
            tcp: SocketAddr::from(([127, 0, 0, 1], 0)),
            udp: None,
        };
        let mut tcp = None;
        let deadline = Instant::now() + CHILD_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx.recv_timeout(left).map_err(|_| {
                let log = std::fs::read_to_string(stderr).unwrap_or_default();
                format!("daemon did not announce itself (stderr: {})", log.trim())
            })?;
            if let Some(addr) = line.strip_prefix("pathalias-server listening on tcp ") {
                tcp = addr.trim().parse().ok();
            } else if let Some(addr) = line.strip_prefix("pathalias-server listening on udp ") {
                daemon.udp = addr.trim().parse().ok();
            } else if line.starts_with("pathalias-server serving ") {
                break;
            }
        }
        daemon.tcp = tcp.ok_or("daemon announced no tcp address")?;
        Ok(daemon)
    }

    /// Peak resident set of the daemon so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(self.child.id())
    }

    /// CPU time the daemon has consumed so far, in microseconds.
    pub fn cpu_us(&self) -> Option<u64> {
        cpu_us(self.child.id())
    }

    /// Whether the process is still running.
    pub fn is_alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// Kills the daemon (for the dead-child test).
    #[cfg(test)]
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The outcome of one child run to completion.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    /// Spawn to exit, in seconds.
    pub wall_s: f64,
    /// Peak resident set, in MB (0 when `/proc` gave nothing).
    pub peak_rss_mb: f64,
    /// Exit status was success.
    pub ok: bool,
}

/// Kills and reaps a child that is still running when dropped.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Runs `bin <args>` to completion with stdout and stderr sent to the
/// given files, polling its peak resident set once a millisecond.
pub fn run_to_file(
    bin: &Path,
    args: &[String],
    stdout: &Path,
    stderr: &Path,
) -> Result<Finished, String> {
    let create = |p: &Path| File::create(p).map_err(|e| format!("creating {}: {e}", p.display()));
    let (out, err) = (create(stdout)?, create(stderr)?);
    let start = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::from(out))
        .stderr(Stdio::from(err))
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let mut child = Reaper(child);
    let pid = child.0.id();
    let mut peak = 0f64;
    loop {
        if let Some(mb) = peak_rss_mb(pid) {
            peak = peak.max(mb);
        }
        match child.0.try_wait() {
            Ok(Some(status)) => {
                return Ok(Finished {
                    wall_s: start.elapsed().as_secs_f64(),
                    peak_rss_mb: peak,
                    ok: status.success(),
                })
            }
            Ok(None) if start.elapsed() > CHILD_TIMEOUT => {
                return Err(format!(
                    "{} {:?} still running after {CHILD_TIMEOUT:?}",
                    bin.display(),
                    args.first()
                ))
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => return Err(format!("waiting for child: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let me = std::process::id();
        assert!(peak_rss_mb(me).unwrap() > 0.5);
        assert!(cpu_us(me).is_some());
        assert!(peak_rss_mb(u32::MAX - 1).is_none());
    }

    #[test]
    fn work_dir_is_removed_on_drop() {
        let out = std::env::temp_dir().join(format!("pabench-wd-{}", std::process::id()));
        let path = {
            let wd = WorkDir::create(&out).unwrap();
            std::fs::write(wd.path().join("f"), "x").unwrap();
            wd.path().to_path_buf()
        };
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(out);
    }

    #[test]
    fn a_child_run_reports_status_time_and_output() {
        let dir = std::env::temp_dir().join(format!("pabench-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (o, e) = (dir.join("o"), dir.join("e"));
        let fin = run_to_file(
            Path::new("sh"),
            &["-c".into(), "echo hi; exit 3".into()],
            &o,
            &e,
        )
        .unwrap();
        assert!(!fin.ok && fin.wall_s > 0.0);
        assert_eq!(std::fs::read_to_string(&o).unwrap(), "hi\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
