//! Deterministic fault injection for the cluster simulator.
//!
//! Long-context training jobs run for days on hundreds of devices, so the
//! planner's output meets stragglers, flaky NICs and late-joining workers
//! in practice. A [`FaultSpec`] perturbs a simulation with such faults so
//! robustness experiments (how much makespan does a ×4 straggler cost a
//! DCP plan vs a ring baseline?) are reproducible: all randomness is a
//! pure function of [`FaultSpec::seed`] and the perturbed instruction's
//! coordinates, never of iteration order or wall clock.
//!
//! An empty spec is the identity: [`crate::simulate`] under
//! [`FaultSpec::none`] is the clean simulation, whatever the seed. The
//! simulator is a spec's only reader: the planner and the recovery patcher
//! place for a healthy cluster, and a spec prices what that costs.

use serde::{Deserialize, Serialize};

/// Rate multiplier used to model a *failed* link. A truly dead link would
/// deadlock any plan that routes a transfer over it — real collectives
/// instead crawl through a rerouted/renegotiated path — so failure is
/// modeled as a near-total bandwidth collapse rather than a hard stop.
pub const FAILED_LINK_FACTOR: f64 = 1e-3;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// `device` runs every kernel `slowdown`× slower (plus a small
    /// seed-deterministic jitter on each kernel), modelling thermal
    /// throttling or a noisy neighbor.
    Straggler {
        /// Device whose kernels are slowed.
        device: u32,
        /// Multiplier on kernel durations; must be `>= 1`.
        slowdown: f64,
    },
    /// The directed link `src -> dst` delivers only `factor` of its
    /// nominal bandwidth (`0 < factor <= 1`).
    DegradedLink {
        /// Sending device.
        src: u32,
        /// Receiving device.
        dst: u32,
        /// Fraction of nominal bandwidth retained.
        factor: f64,
    },
    /// The directed link `src -> dst` has failed: it retains only
    /// [`FAILED_LINK_FACTOR`] of its nominal bandwidth.
    FailedLink {
        /// Sending device.
        src: u32,
        /// Receiving device.
        dst: u32,
    },
    /// `device` joins the phase `delay_s` seconds late (checkpoint
    /// restore, container restart), idling before its first instruction.
    DelayedStart {
        /// Device that starts late.
        device: u32,
        /// Seconds of delay.
        delay_s: f64,
    },
}

/// A reproducible set of faults to inject into a simulation.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Seed for the per-kernel straggler jitter. Two runs with the same
    /// spec (seed and faults) are bitwise identical.
    pub seed: u64,
    /// The faults to inject. Multiple faults of the same kind on the same
    /// device/link compose multiplicatively (slowdowns and factors) or
    /// additively (delays).
    pub faults: Vec<Fault>,
}

impl FaultSpec {
    /// The empty spec: injecting it leaves the simulation bitwise
    /// unchanged.
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// Whether the spec injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Per-device kernel slowdown factors (1.0 = nominal) for `n` devices.
    pub(crate) fn slowdowns(&self, n: usize) -> Vec<f64> {
        let mut s = vec![1.0; n];
        for f in &self.faults {
            if let Fault::Straggler { device, slowdown } = *f {
                if (device as usize) < n {
                    s[device as usize] *= slowdown.max(1.0);
                }
            }
        }
        s
    }

    /// Per-device start delays in seconds for `n` devices.
    pub(crate) fn delays(&self, n: usize) -> Vec<f64> {
        let mut d = vec![0.0; n];
        for f in &self.faults {
            if let Fault::DelayedStart { device, delay_s } = *f {
                if (device as usize) < n {
                    d[device as usize] += delay_s.max(0.0);
                }
            }
        }
        d
    }

    /// Directed `(src, dst, factor)` bandwidth multipliers, deduplicated
    /// multiplicatively in declaration order.
    pub(crate) fn link_factors(&self) -> Vec<(u32, u32, f64)> {
        let mut out: Vec<(u32, u32, f64)> = Vec::new();
        for f in &self.faults {
            let (src, dst, factor) = match *f {
                Fault::DegradedLink { src, dst, factor } => (src, dst, factor.clamp(1e-9, 1.0)),
                Fault::FailedLink { src, dst } => (src, dst, FAILED_LINK_FACTOR),
                _ => continue,
            };
            match out.iter_mut().find(|(s, d, _)| *s == src && *d == dst) {
                Some((_, _, acc)) => *acc *= factor,
                None => out.push((src, dst, factor)),
            }
        }
        out
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Straggler jitter for the kernel at instruction `step` on `device`:
/// uniform in `[0.9, 1.1)`, a pure function of its arguments so the draw
/// does not depend on simulation event order.
pub(crate) fn jitter(seed: u64, device: u32, step: usize) -> f64 {
    let h = splitmix64(seed ^ ((device as u64) << 40) ^ (step as u64));
    0.9 + 0.2 * ((h >> 11) as f64 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_identity_shaped() {
        let s = FaultSpec::none();
        assert!(s.is_empty());
        assert_eq!(s.slowdowns(4), vec![1.0; 4]);
        assert_eq!(s.delays(4), vec![0.0; 4]);
        assert!(s.link_factors().is_empty());
    }

    #[test]
    fn faults_aggregate_per_device_and_link() {
        let s = FaultSpec {
            seed: 7,
            faults: vec![
                Fault::Straggler {
                    device: 1,
                    slowdown: 2.0,
                },
                Fault::Straggler {
                    device: 1,
                    slowdown: 3.0,
                },
                Fault::DelayedStart {
                    device: 0,
                    delay_s: 0.5,
                },
                Fault::DegradedLink {
                    src: 0,
                    dst: 1,
                    factor: 0.5,
                },
                Fault::FailedLink { src: 0, dst: 1 },
                Fault::Straggler {
                    device: 99,
                    slowdown: 8.0,
                }, // out of range: ignored
            ],
        };
        assert_eq!(s.slowdowns(2), vec![1.0, 6.0]);
        assert_eq!(s.delays(2), vec![0.5, 0.0]);
        let links = s.link_factors();
        assert_eq!(links.len(), 1);
        assert!((links[0].2 - 0.5 * FAILED_LINK_FACTOR).abs() < 1e-15);
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_varies() {
        let a = jitter(42, 0, 0);
        let b = jitter(42, 0, 0);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!((0.9..1.1).contains(&a));
        let c = jitter(42, 0, 1);
        let d = jitter(43, 0, 0);
        assert_ne!(a.to_bits(), c.to_bits());
        assert_ne!(a.to_bits(), d.to_bits());
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let s = FaultSpec {
            seed: 5,
            faults: vec![
                Fault::Straggler {
                    device: 0,
                    slowdown: 4.0,
                },
                Fault::FailedLink { src: 1, dst: 2 },
            ],
        };
        let j = serde_json::to_string(&s).unwrap();
        let back: FaultSpec = serde_json::from_str(&j).unwrap();
        assert_eq!(s, back);
    }
}
