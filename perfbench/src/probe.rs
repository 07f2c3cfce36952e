//! Measurements taken from outside the library: resident-set peaks, the
//! machine fingerprint, solution checksums and order statistics.

use std::fmt::Write as _;
use std::fs;

/// Peak resident set size (`VmHWM`) of this process in bytes, or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Reset the `VmHWM` high-water mark to the current resident size, so the
/// next [`peak_rss_bytes`] reads the peak of the phase that follows.
/// Returns `false` where the kernel refuses (no `/proc`, no permission);
/// phase peaks are then unavailable.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Run `f` and return its result with the peak RSS reached while it ran
/// (`None` when the high-water mark cannot be reset).
pub fn with_peak_rss<R>(f: impl FnOnce() -> R) -> (R, Option<u64>) {
    let armed = reset_peak_rss();
    let result = f();
    let peak = if armed { peak_rss_bytes() } else { None };
    (result, peak)
}

/// The machine-wide `(steal, total)` CPU jiffies from `/proc/stat`, or
/// `None` where unavailable.  Steal is time the hypervisor gave this
/// machine's virtual CPUs to someone else: the share over a run tells a
/// run slowed by neighbours from a slow program.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// 64-bit FNV-1a over the bit patterns of `values`.
pub fn fnv1a(values: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistic of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    sorted
}

/// The machine fingerprint stored with every result, as a JSON object:
/// CPU model, the ISA levels the CPU offers and the ones the binary was
/// compiled for, core and pool sizes, and the build settings handed in by
/// the launcher.
pub fn fingerprint_json(threads: usize, commit: &str, rustflags: &str) -> String {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let cpu_flags: Vec<&str> = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .and_then(|l| l.split(':').nth(1))
        .map_or(Vec::new(), |f| f.split_whitespace().collect());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());

    let mut isa = String::new();
    for flag in ["avx2", "fma", "avx512f"] {
        let _ = write!(
            isa,
            "{}\"{flag}\": {}",
            if isa.is_empty() { "" } else { ", " },
            cpu_flags.contains(&flag)
        );
    }
    let compiled = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .iter()
    .map(|(f, on)| format!("\"{f}\": {on}"))
    .collect::<Vec<_>>()
    .join(", ");
    format!(
        "{{\"cpu_model\": {}, \"isa\": {{{isa}}}, \"isa_compiled\": {{{compiled}}}, \
         \"nproc\": {nproc}, \"rayon_threads\": {threads}, \"rustflags\": {}, \
         \"git_commit\": {}}}",
        json_string(model),
        json_string(rustflags),
        json_string(commit)
    )
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn checksum_sees_every_bit() {
        assert_ne!(fnv1a(&[1.0, 2.0]), fnv1a(&[2.0, 1.0]));
        assert_ne!(fnv1a(&[0.0]), fnv1a(&[-0.0]));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
