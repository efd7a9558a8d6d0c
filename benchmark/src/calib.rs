//! The host-speed calibrator: two fixed kernels owned by the benchmark, read
//! right before and after every timed segment, and the meter that scales each
//! segment by the readings around it.
//!
//! This host's speed is not a constant (README, "The host"): the same code
//! runs in one of three modes — about 0.87×, 1× and 1.5× its usual time —
//! that last from a fraction of a second to minutes, and CPU time moves with
//! wall time, so it is not scheduling. A wall time measured here is only
//! comparable with another after dividing out the mode it was taken in. The
//! calibrator is the yardstick for that: code that never changes with the
//! repo, timed next to the code that does.
//!
//! Two kernels, because the modes do not slow all code alike: `flops` is an
//! f32 multiply-add loop over matrices that fit the L2 cache (what the
//! executor's kernels are made of); `chase` hashes, sorts and follows
//! pointers through a table larger than L2 (what planning is made of).

use std::collections::HashMap;
use std::time::Instant;

/// Side of the square f32 matrices `flops` multiplies.
const N: usize = 160;
/// Entries of the pointer table `chase` walks (8 MiB of `u32`).
const TABLE: usize = 1 << 21;
/// Repetitions of each kernel per reading; the reading is their mean. (The
/// fastest of them reads low whenever the host changes mode inside a reading,
/// which it does: scaled rounds spread a third wider with it.)
const REPS: usize = 3;

/// Seconds the two kernels take on this host in its usual mode, read the way
/// a run reads them, between segments of a workload (`flops_ms_p10_p50_p90`
/// and `chase_ms_p10_p50_p90` in the detail line; `ledger --host` reads
/// `chase` a third faster, its table never leaves the cache). A scaled time
/// is what the segment would have taken on a host that reads exactly these,
/// so on a quiet host scaled and timed numbers are about the same.
pub const REF_FLOPS_S: f64 = 4.0e-4;
pub const REF_CHASE_S: f64 = 1.5e-3;

/// One reading: seconds each kernel took (mean of [`REPS`]).
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub flops_s: f64,
    pub chase_s: f64,
}

/// What a timed segment is made of, which decides the reading it scales by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Executor kernels: the `flops` reading.
    Compute,
    /// Planning, verifying, simulating, set-up: the geometric mean of both.
    Planning,
}

impl Reading {
    /// How many times slower than the reference host this reading is.
    fn slowdown(self, scale: Scale) -> f64 {
        let f = self.flops_s / REF_FLOPS_S;
        match scale {
            Scale::Compute => f,
            Scale::Planning => (f * self.chase_s / REF_CHASE_S).sqrt(),
        }
    }
}

/// The calibrator's buffers, built once per process.
pub struct Calibrator {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    next: Vec<u32>,
    sink: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    pub fn new() -> Self {
        // One cycle through the whole table in a fixed pseudo-random order.
        let mut order: Vec<u32> = (0..TABLE as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..TABLE).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; TABLE];
        for i in 0..TABLE {
            next[order[i] as usize] = order[(i + 1) % TABLE];
        }
        Calibrator {
            a: vec![1.0001; N * N],
            b: vec![0.9999; N * N],
            c: vec![0.0; N * N],
            next,
            sink: 1,
        }
    }

    fn flops(&mut self) {
        let (a, b, c) = (&self.a, &self.b, &mut self.c);
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                let (row, out) = (&b[k * N..(k + 1) * N], &mut c[i * N..(i + 1) * N]);
                for (o, r) in out.iter_mut().zip(row) {
                    *o += aik * r;
                }
            }
        }
        std::hint::black_box(&mut self.c);
    }

    fn chase(&mut self) {
        let mut y = self.sink | 1;
        let mut seen: HashMap<u64, u64> = HashMap::new();
        let mut keys = Vec::with_capacity(4000);
        for i in 0..4000u64 {
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            *seen.entry(y % 4096).or_insert(0) += i;
            keys.push(y);
        }
        keys.sort_unstable();
        let mut p = (keys[100] % TABLE as u64) as u32;
        for _ in 0..8000 {
            p = self.next[p as usize];
        }
        self.sink = self
            .sink
            .wrapping_add(p as u64)
            .wrapping_add(seen.len() as u64);
        std::hint::black_box(self.sink);
    }

    /// Times both kernels now.
    pub fn read(&mut self) -> Reading {
        let mut sum = Reading {
            flops_s: 0.0,
            chase_s: 0.0,
        };
        for _ in 0..REPS {
            let t0 = Instant::now();
            self.flops();
            sum.flops_s += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            self.chase();
            sum.chase_s += t0.elapsed().as_secs_f64();
        }
        Reading {
            flops_s: sum.flops_s / REPS as f64,
            chase_s: sum.chase_s / REPS as f64,
        }
    }
}

/// Wall and scaled seconds of the segments since the last [`Meter::take`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Metered {
    /// Seconds as timed.
    pub wall_s: f64,
    /// Each segment divided by the mean slowdown of the two readings around
    /// it: seconds on the reference host.
    pub scaled_s: f64,
}

/// Scales timed segments by the calibrator readings that bracket them. A
/// segment is short (tens to hundreds of milliseconds): the host's modes
/// change faster than a round.
pub struct Meter {
    /// `None` in the traced run, which reports no scaled metric: segments
    /// then scale by 1 and nothing is read.
    cal: Option<Calibrator>,
    last: Reading,
    /// When the segment being timed began.
    mark: Instant,
    sum: Metered,
    /// Every reading taken, for the detail line.
    pub readings: Vec<Reading>,
}

impl Meter {
    pub fn new(calibrate: bool) -> Self {
        Meter {
            cal: calibrate.then(Calibrator::new),
            last: Reading {
                flops_s: REF_FLOPS_S,
                chase_s: REF_CHASE_S,
            },
            mark: Instant::now(),
            sum: Metered::default(),
            readings: Vec::new(),
        }
    }

    fn read(&mut self) -> Reading {
        match &mut self.cal {
            Some(cal) => {
                let r = cal.read();
                self.readings.push(r);
                r
            }
            None => self.last,
        }
    }

    /// Takes the reading before the first of a run of back-to-back segments
    /// and starts timing it.
    pub fn open(&mut self) {
        self.last = self.read();
        self.mark = Instant::now();
    }

    /// Ends the segment being timed and starts the next: the reading taken
    /// in between closes one and opens the other, and is in neither.
    pub fn lap(&mut self, scale: Scale) {
        let wall_s = self.mark.elapsed().as_secs_f64();
        let now = self.read();
        let slowdown = (self.last.slowdown(scale) + now.slowdown(scale)) / 2.0;
        self.sum.wall_s += wall_s;
        self.sum.scaled_s += wall_s / slowdown;
        self.last = now;
        self.mark = Instant::now();
    }

    /// The sums since the last call, which it resets.
    pub fn take(&mut self) -> Metered {
        std::mem::take(&mut self.sum)
    }
}

/// `ledger --host`: reads the calibrator for `seconds` and prints what the
/// host's speed did — the evidence behind the scaling, and the way to choose
/// [`REF_FLOPS_S`] / [`REF_CHASE_S`] on another machine.
pub fn print_host(seconds: f64) {
    let mut cal = Calibrator::new();
    let t0 = Instant::now();
    let (mut flops, mut chase) = (Vec::new(), Vec::new());
    while t0.elapsed().as_secs_f64() < seconds {
        let r = cal.read();
        flops.push(r.flops_s * 1e3);
        chase.push(r.chase_s * 1e3);
    }
    for (name, v) in [("flops", &flops), ("chase", &chase)] {
        let q = |p| crate::stats::percentile(v, p);
        println!(
            "{name}: {} readings, ms p1 {:.4} p10 {:.4} p50 {:.4} p90 {:.4} p99 {:.4}",
            v.len(),
            q(1.0),
            q(10.0),
            q(50.0),
            q(90.0),
            q(99.0)
        );
    }
}
