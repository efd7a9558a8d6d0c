//! Order statistics, hashing and the few process-level readings the ledger
//! takes (`/proc` counters, CPU affinity).

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The `_p90` of a per-batch timing: reported only when at least ten samples
/// lie beyond it (100 samples), 0 otherwise — the sample count is printed
/// beside it.
pub fn p90_if_supported(v: &[f64]) -> f64 {
    if v.len() >= 100 {
        percentile(v, 90.0)
    } else {
        0.0
    }
}

/// Inter-quartile range over the median, with the quartiles Python's
/// `statistics.quantiles(v, n=4)` returns (the driver's spread formula).
pub fn iqr_over_median(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    let med = median(&s);
    if med == 0.0 {
        0.0
    } else {
        (q(3) - q(1)) / med
    }
}

/// Geometric mean of strictly positive values (0 for an empty slice).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Streaming FNV-1a (64-bit). Used for `inputs_hash` and plan hashes: stable
/// across runs and platforms, unlike `std`'s randomly keyed hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn proc_status_kib(key: &str) -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`) in MiB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |k| k / 1024.0)
}

/// User + system CPU seconds of the whole process (all threads), from
/// `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn process_cpu_s() -> f64 {
    let Ok(s) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, i.e. indices 11 and 12 after it.
    let Some(rest) = s.rsplit_once(") ").map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

const CPU_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, as a bit set.
fn allowed_cpus() -> Option<[u64; CPU_WORDS]> {
    let mut set = [0u64; CPU_WORDS];
    // SAFETY: `set` is a writable buffer of exactly the byte length passed;
    // pid 0 names the calling thread; the call writes nothing beyond it.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

fn set_cpus(set: &[u64; CPU_WORDS]) -> bool {
    // SAFETY: `set` is a readable buffer of exactly the byte length passed;
    // pid 0 names the calling thread, and the kernel only reads the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(set), set.as_ptr()) == 0 }
}

/// The affinity the process started with, so the unpinned thread-scaling
/// diagnostics can restore it.
#[derive(Debug, Clone, Copy)]
pub struct Affinity([u64; CPU_WORDS]);

/// The CPUs allowed before the first pin.
fn original() -> Option<Affinity> {
    static ORIGINAL: std::sync::OnceLock<Option<Affinity>> = std::sync::OnceLock::new();
    *ORIGINAL.get_or_init(|| allowed_cpus().map(Affinity))
}

/// Pins the calling thread (and every thread it later spawns) to the
/// highest-numbered allowed CPU — CPU 0 takes most interrupts. Returns the
/// original affinity, or `None` when pinning is unavailable.
pub fn pin_to_one_cpu() -> Option<Affinity> {
    let all = original()?.0;
    let (word, bits) = all.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let mut one = [0u64; CPU_WORDS];
    one[word] = 1u64 << (63 - bits.leading_zeros());
    set_cpus(&one).then_some(Affinity(all))
}

/// Moves the calling thread alone to the lowest-numbered allowed CPU: where
/// `replan_stream`'s consumer sits while the worker it spawned keeps the
/// highest one. The same CPU when only one is allowed.
pub fn pin_to_other_cpu() {
    let Some(all) = original() else { return };
    if let Some((word, bits)) = all.0.iter().enumerate().find(|(_, w)| **w != 0) {
        let mut one = [0u64; CPU_WORDS];
        one[word] = 1u64 << bits.trailing_zeros();
        set_cpus(&one);
    }
}

/// Restores the affinity [`pin_to_one_cpu`] replaced.
pub fn unpin(original: &Affinity) {
    set_cpus(&original.0);
}
