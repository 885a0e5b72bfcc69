//! Metric collection, the environment stamp, and the result line.

use std::fmt::Write as _;

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Record a metric. Non-finite values are a harness bug.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.items.push((name, value, unit));
    }

    /// Print every metric, one per line, for people.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.items {
            if *value == 0.0 || value.abs() >= 1e-3 {
                println!("  {name:<34} {value:>14.6} {unit}");
            } else {
                println!("  {name:<34} {value:>14.3e} {unit}");
            }
        }
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.items.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// The final result line.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Env {
    /// Source revision (git sha, or a digest of the source tree when the
    /// checkout is not a git repository).
    pub rev: String,
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Last-level cache size as the kernel reports it.
    pub llc: String,
    /// Cargo profile the benchmark and server were built with.
    pub profile: &'static str,
}

impl Env {
    /// Probe the machine.
    pub fn probe(rev: &str) -> Env {
        let cpu = cpuinfo_field("model name").unwrap_or_else(|| "unknown".to_string());
        Env {
            rev: rev.to_string(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            llc: llc_size()
                .or_else(|| cpuinfo_field("cache size"))
                .unwrap_or_else(|| "unknown".to_string()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// One-line JSON stamp.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rev\": \"{}\", \"nproc\": {}, \"cpu\": \"{}\", \"llc\": \"{}\", \"profile\": \"{}\"}}",
            self.rev,
            self.nproc,
            self.cpu.replace('"', "'"),
            self.llc,
            self.profile
        )
    }
}

/// The first value of a `/proc/cpuinfo` field.
fn cpuinfo_field(key: &str) -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with(key))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// Size of the highest-level cache of CPU 0, as sysfs reports it (`105M`).
fn llc_size() -> Option<String> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, String)> = None;
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let level: u32 = std::fs::read_to_string(dir.join("level"))
            .ok()?
            .trim()
            .parse()
            .ok()?;
        let size = std::fs::read_to_string(dir.join("size")).ok()?;
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, size.trim().to_string()));
        }
    }
    best.map(|(_, s)| s)
}

/// Bytes in a cache size string such as `105M`, `4096K` or `107520 KB`.
pub fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim().trim_end_matches('B');
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1usize << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.trim().parse::<usize>().ok().map(|v| v * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("solve_p50_ms.low", 1.25, "ms");
        m.put("setup_s", 0.5, "s");
        assert_eq!(
            result_line(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"solve_p50_ms.low\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("105M"), Some(105 << 20));
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("107520 KB"), Some(105 << 20));
        assert_eq!(parse_size("x"), None);
    }
}
