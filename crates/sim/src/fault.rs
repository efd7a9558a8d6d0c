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
//! [`FaultSpec::none`] is the clean simulation, whatever the seed.

use serde::{Deserialize, Serialize};

/// Rate multiplier used to model a *failed* link. A truly dead link would
/// deadlock any plan that routes a transfer over it — real collectives
/// instead crawl through a rerouted/renegotiated path — so failure is
/// modeled as a near-total bandwidth collapse rather than a hard stop.
pub const FAILED_LINK_FACTOR: f64 = 1e-3;

/// Floor on a fault-derived capacity weight: even a near-dead link (or, for
/// callers that also floor compute, a crawling straggler) keeps a sliver of
/// capacity, so no placement target is driven to zero.
pub const MIN_CAPACITY_WEIGHT: f64 = 0.05;

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
    /// The directed link `src -> dst` flaps: for the first `duty` fraction
    /// of every `period_s`-second cycle it delivers only `factor` of its
    /// nominal bandwidth, then recovers for the rest of the cycle
    /// (piecewise-constant rate, phase-aligned to `t = 0`). `duty >= 1`
    /// degenerates to a constant degradation and is bitwise identical to
    /// [`Fault::DegradedLink`] with the same factor.
    FlappingLink {
        /// Sending device.
        src: u32,
        /// Receiving device.
        dst: u32,
        /// Seconds per degrade/recover cycle.
        period_s: f64,
        /// Fraction of each cycle spent degraded, in `(0, 1]`.
        duty: f64,
        /// Fraction of nominal bandwidth retained while degraded.
        factor: f64,
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
    pub fn slowdowns(&self, n: usize) -> Vec<f64> {
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
    pub fn delays(&self, n: usize) -> Vec<f64> {
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

    /// Directed `(src, dst, factor)` *constant* bandwidth multipliers,
    /// deduplicated multiplicatively in declaration order. Degenerate
    /// flapping (`duty >= 1` or `period_s <= 0`, i.e. the link never
    /// recovers) folds in here, which is what makes it bitwise identical
    /// to [`Fault::DegradedLink`].
    pub fn link_factors(&self) -> Vec<(u32, u32, f64)> {
        let mut out: Vec<(u32, u32, f64)> = Vec::new();
        for f in &self.faults {
            let (src, dst, factor) = match *f {
                Fault::DegradedLink { src, dst, factor } => (src, dst, factor.clamp(1e-9, 1.0)),
                Fault::FailedLink { src, dst } => (src, dst, FAILED_LINK_FACTOR),
                Fault::FlappingLink {
                    src,
                    dst,
                    period_s,
                    duty,
                    factor,
                } if duty >= 1.0 || period_s <= 0.0 => (src, dst, factor.clamp(1e-9, 1.0)),
                _ => continue,
            };
            match out.iter_mut().find(|(s, d, _)| *s == src && *d == dst) {
                Some((_, _, acc)) => *acc *= factor,
                None => out.push((src, dst, factor)),
            }
        }
        out
    }

    /// Genuinely flapping links: `(src, dst, period_s, duty, factor)` with
    /// `period_s > 0`, `0 < duty < 1` and `factor < 1`. Degenerate entries
    /// are folded into [`FaultSpec::link_factors`] (never-recovering) or
    /// dropped (never-degraded / no-op factor). A later declaration on the
    /// same link replaces an earlier one.
    pub fn flapping_links(&self) -> Vec<(u32, u32, f64, f64, f64)> {
        let mut out: Vec<(u32, u32, f64, f64, f64)> = Vec::new();
        for f in &self.faults {
            if let Fault::FlappingLink {
                src,
                dst,
                period_s,
                duty,
                factor,
            } = *f
            {
                if period_s <= 0.0 || duty >= 1.0 || duty <= 0.0 || factor >= 1.0 {
                    continue;
                }
                let entry = (src, dst, period_s, duty, factor.clamp(1e-9, 1.0));
                match out.iter_mut().find(|(s, d, ..)| *s == src && *d == dst) {
                    Some(e) => *e = entry,
                    None => out.push(entry),
                }
            }
        }
        out
    }

    /// Per-device capacity weights `[compute, bytes]` for placing work on
    /// `n` devices *around* this spec: compute ∝ 1/slowdown, bytes ∝ the
    /// rate factor of the device's worst incident link (a flapping link
    /// counts its duty-weighted mean), floored at [`MIN_CAPACITY_WEIGHT`].
    /// `None` when the spec changes nothing, so the healthy path stays
    /// byte-identical to a fault-blind one.
    pub fn capacity_weights(&self, n: usize) -> Option<Vec<[f64; 2]>> {
        let mut w: Vec<[f64; 2]> = self
            .slowdowns(n)
            .iter()
            .map(|s| [1.0 / s.max(1.0), 1.0])
            .collect();
        let flapping = self
            .flapping_links()
            .into_iter()
            .map(|(src, dst, _period, duty, factor)| (src, dst, duty * factor + (1.0 - duty)));
        for (src, dst, factor) in self.link_factors().into_iter().chain(flapping) {
            for d in [src, dst] {
                if let Some(x) = w.get_mut(d as usize) {
                    x[1] = x[1].min(factor.max(MIN_CAPACITY_WEIGHT));
                }
            }
        }
        w.iter()
            .any(|x| x[0] < 1.0 - 1e-12 || x[1] < 1.0 - 1e-12)
            .then_some(w)
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
    fn flapping_links_classify_degenerate_cases() {
        let s = FaultSpec {
            seed: 0,
            faults: vec![
                // Genuine flapping.
                Fault::FlappingLink {
                    src: 0,
                    dst: 1,
                    period_s: 0.01,
                    duty: 0.5,
                    factor: 0.2,
                },
                // duty >= 1: constant degradation, must fold into
                // link_factors exactly like a DegradedLink.
                Fault::FlappingLink {
                    src: 2,
                    dst: 3,
                    period_s: 0.01,
                    duty: 1.0,
                    factor: 0.3,
                },
                // Never degraded / no-op factor: dropped entirely.
                Fault::FlappingLink {
                    src: 4,
                    dst: 5,
                    period_s: 0.01,
                    duty: 0.0,
                    factor: 0.2,
                },
                Fault::FlappingLink {
                    src: 4,
                    dst: 5,
                    period_s: 0.01,
                    duty: 0.5,
                    factor: 1.0,
                },
            ],
        };
        let flapping = s.flapping_links();
        assert_eq!(flapping, vec![(0, 1, 0.01, 0.5, 0.2)]);
        let constant = FaultSpec {
            seed: 0,
            faults: vec![Fault::DegradedLink {
                src: 2,
                dst: 3,
                factor: 0.3,
            }],
        };
        assert_eq!(s.link_factors(), constant.link_factors());
    }

    #[test]
    fn later_flapping_declaration_replaces_earlier() {
        let s = FaultSpec {
            seed: 0,
            faults: vec![
                Fault::FlappingLink {
                    src: 0,
                    dst: 1,
                    period_s: 0.01,
                    duty: 0.5,
                    factor: 0.2,
                },
                Fault::FlappingLink {
                    src: 0,
                    dst: 1,
                    period_s: 0.02,
                    duty: 0.25,
                    factor: 0.4,
                },
            ],
        };
        assert_eq!(s.flapping_links(), vec![(0, 1, 0.02, 0.25, 0.4)]);
    }

    #[test]
    fn capacity_weights_follow_slowdowns_and_worst_incident_link() {
        assert_eq!(FaultSpec::none().capacity_weights(4), None);
        let s = FaultSpec {
            seed: 0,
            faults: vec![
                Fault::Straggler {
                    device: 1,
                    slowdown: 4.0,
                },
                Fault::DegradedLink {
                    src: 0,
                    dst: 2,
                    factor: 0.5,
                },
                // Below the floor; device 9 is out of range and ignored.
                Fault::FailedLink { src: 2, dst: 9 },
                Fault::FlappingLink {
                    src: 3,
                    dst: 0,
                    period_s: 0.01,
                    duty: 0.5,
                    factor: 0.5,
                },
            ],
        };
        assert_eq!(
            s.capacity_weights(4),
            Some(vec![
                [1.0, 0.5],
                [0.25, 1.0],
                [1.0, MIN_CAPACITY_WEIGHT],
                [1.0, 0.75]
            ])
        );
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
