//! Measurement primitives: a seeded generator, exact order-statistic
//! quantiles, process memory and disk usage, and the span tracer of the
//! traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// splitmix64: the benchmark's own generator, so inputs depend only on the
/// seed and on this file, never on a generator inside the program.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Raw per-operation samples in nanoseconds; quantiles are exact order
/// statistics (nearest rank), never histogram bucket bounds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, elapsed: Duration) {
        self.0.push(elapsed.as_nanos() as u64);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The samples recorded since the first `from`.
    pub fn since(&self, from: usize) -> Samples {
        self.window(from..self.0.len())
    }

    /// The samples with recording indexes in `range`.
    pub fn window(&self, range: std::ops::Range<usize>) -> Samples {
        Samples(self.0[range].to_vec())
    }

    /// The nearest-rank `q`-quantile in nanoseconds. Panics when fewer than
    /// ten samples lie beyond it: such a percentile is not supported by the
    /// sample, and reporting it would be reporting noise.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        assert!(n > 0, "quantile of an empty sample");
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if q < 1.0 {
            let beyond = n - rank;
            assert!(
                beyond >= 10 || q <= 0.5,
                "p{} over {n} samples has only {beyond} beyond it (need 10)",
                q * 100.0
            );
        }
        sorted[rank - 1] as f64
    }

    pub fn median_ns(&self) -> f64 {
        self.quantile_ns(0.5)
    }
}

/// Median of a small set of per-repetition values (mean of the middle two
/// for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset `VmHWM` to the current resident set size, so the next reading
/// is the peak since now.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hand the allocator's free heap pages back to the kernel, so every
/// repetition starts from the same resident set and pays the same page
/// faults a fresh process would; otherwise later repetitions reuse pages
/// the first one faulted in, and their peaks and first-touch costs drift
/// with the repetition count.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: malloc_trim takes the allocator's own locks, releases only
    // pages no allocation uses, and touches no memory of the caller.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_memory() {}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One recorded span: a call the benchmark made into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// In-memory span recorder. Disabled, [`Tracer::span`] only calls its
/// closure, so the untraced and traced runs execute the same code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    /// For a forked tracer: the span of the parent tracer that was open at
    /// the fork, which becomes the parent of this tracer's top-level spans.
    fork_parent: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            fork_parent: None,
        }
    }

    /// A tracer for another thread that shares this one's time origin; its
    /// top-level spans nest under the span open here.
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            fork_parent: self.open.last().copied(),
        }
    }

    /// Tag the spans opened from now on with a request id.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// [`Tracer::span`], also returning the span's duration in nanoseconds
    /// (measured the same way when tracing is off).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        if !self.on {
            let started = Instant::now();
            let out = f(self);
            return (out, started.elapsed().as_nanos() as u64);
        }
        let id = self.spans.len();
        let out = self.span(name, f);
        (out, self.spans[id].end_ns - self.spans[id].start_ns)
    }

    /// Merge another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset).or(other.fork_parent);
            s
        }));
    }

    /// Per span name: count, total time and self time (total minus the time
    /// covered by child spans), in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(covered);
        }
        out
    }

    /// Write every span as one tab-separated line:
    /// `id name start_ns end_ns parent request`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("id\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
