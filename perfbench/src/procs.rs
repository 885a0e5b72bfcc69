//! Serving processes: `trisolv serve` and `trisolv route` as users run
//! them, each learned from its `listening on ADDR` banner.

use std::io::{self, BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running server or router process. Dropping it kills the process
/// and waits for it.
pub struct Proc {
    child: Option<Child>,
    drain: Option<JoinHandle<()>>,
    /// The address from the listen banner.
    pub addr: String,
}

impl Proc {
    /// Start `bin args…` and wait (up to 20 s) for its listen banner.
    pub fn spawn(bin: &str, args: &[&str]) -> io::Result<Proc> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut proc = Proc {
            child: Some(child),
            drain: None,
            addr: String::new(),
        };
        let mut reader = BufReader::new(stdout);
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 || Instant::now() > deadline {
                return Err(io::Error::other(format!(
                    "{bin} {args:?} exited or stalled before its listen banner"
                )));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                proc.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                break;
            }
        }
        // keep the pipe drained so the child never blocks on stdout; the
        // thread ends when the child's stdout closes
        proc.drain = Some(std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        }));
        Ok(proc)
    }

    /// Peak resident set (`VmHWM`) in KiB, read from `/proc`.
    pub fn rss_peak_kib(&self) -> Option<u64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()
    }

    /// Kill the process and wait until it and the drain thread have
    /// ended.
    pub fn stop(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.reap();
    }
}
