//! Process counters, order statistics, the seeded generator and the
//! line-based result files the child processes hand back to the driver.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Milliseconds elapsed since `start`, with all digits.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// User + system CPU seconds of this process so far
/// (`/proc/self/stat` fields 14 and 15, in clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size in bytes of a store path: one file, or every file of a
/// shard directory.
pub fn path_bytes(path: &Path) -> u64 {
    if path.is_dir() {
        std::fs::read_dir(path)
            .map(|entries| entries.flatten().map(|e| path_bytes(&e.path())).sum())
            .unwrap_or(0)
    } else {
        std::fs::metadata(path).map_or(0, |m| m.len())
    }
}

/// The `p`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[((sorted.len() as f64 - 1.0) * p).round() as usize]
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// FNV-1a over `bytes`: enough to tell two response bodies apart.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// SplitMix64: the benchmark's only source of randomness, so one
/// `--seed` fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Zipf(1.0) over ranks `0..n`: rank `r` is drawn with weight `1/(r+1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for rank in 0..n {
            sum += 1.0 / (rank + 1) as f64;
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// What a child process (or the whole run) reports: metrics by name,
/// operations attempted and failed, and the output checks that failed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }

    /// Records one output check; a failed check is a failed operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    /// Writes the outcome as `kind<TAB>fields…` lines.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut out = format!("attempted\t{}\nfailed\t{}\n", self.attempted, self.failed);
        for (name, m) in &self.metrics {
            out.push_str(&format!("metric\t{name}\t{}\t{:?}\n", m.unit, m.value));
        }
        for failure in &self.failures {
            out.push_str(&format!("failure\t{}\n", failure.replace(['\t', '\n'], " ")));
        }
        std::fs::write(path, out)
    }

    pub fn load(path: &Path) -> std::io::Result<Outcome> {
        let bad = |line: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed result line: {line}"),
            )
        };
        let mut outcome = Outcome::default();
        for line in std::fs::read_to_string(path)?.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            match fields.as_slice() {
                ["attempted", n] => outcome.attempted = n.parse().map_err(|_| bad(line))?,
                ["failed", n] => outcome.failed = n.parse().map_err(|_| bad(line))?,
                ["metric", name, unit, value] => {
                    outcome.metric(name, unit, value.parse().map_err(|_| bad(line))?)
                }
                ["failure", text] => outcome.failures.push((*text).to_string()),
                _ => return Err(bad(line)),
            }
        }
        Ok(outcome)
    }

    /// Folds another outcome's counts, metrics and failures into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.failures.extend(other.failures);
    }

    /// The one-line result object the benchmark contract asks for.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(m.value),
                    json_string(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number with all its digits; non-finite values have no JSON
/// form and are reported as 0 with the failure recorded by the caller.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}

pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
