//! Fault injection and recovery for the serving fleet.
//!
//! TPUv4i's lessons are production-inference lessons, and production
//! machines fail: the follow-on fleet papers emphasize routing around
//! failed machines and recovering quickly at scale. This module supplies
//! the fault vocabulary the DES injects and the failover machinery that
//! reacts to it.
//!
//! # Server lifecycle
//!
//! Every server in the fleet walks a three-state lifecycle:
//!
//! ```text
//!           Crash / Hang
//!   Up ──────────────────▶ Down
//!   ▲ ▲                     │
//!   │ └───── hang ends ─────┤
//!   │                       │ MTTR elapses (crash)
//!   │                       ▼
//!   └── warmup elapses ── Recovering
//! ```
//!
//! - **Up**: healthy, serving.
//! - **Down**: a fail-stop [`FaultKind::Crash`] kills in-flight work
//!   (those requests enter the `failed` terminal state, retryable per
//!   policy) and strands the server's queue; a [`FaultKind::Hang`]
//!   freezes the server — in-flight work resumes where it left off when
//!   the hang clears, and the server is Up again at once.
//! - **Recovering**: the machine is back from a crash but warming up
//!   (reloading weights); it does not serve until the warmup elapses.
//!
//! # Failover
//!
//! With [`FailoverConfig::enabled`], a health checker probes every
//! server each `probe_interval_s`. A server that is crashed (at the
//! first probe after the crash) or hung for at least `probe_timeout_s`
//! (at the first probe past that) is marked *believed down*: the router
//! stops sending it new arrivals, and its stranded queue is drained and
//! redistributed to surviving replicas (or shed if they are full —
//! admission control sees the reduced capacity through the per-server
//! queue caps). When a probe later finds the server serving again it is
//! re-admitted to the rotation. With failover disabled the router stays
//! oblivious: arrivals keep flowing to dead machines and die there —
//! the serve-through baseline E22 measures against.
//!
//! Fault plans are seed-deterministic: the same [`FaultPlan`] always
//! materializes the same schedule, independent of the failover setting,
//! so failover-on and failover-off runs face *identical* injected
//! faults.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::des::ConfigError;

/// What goes wrong with a server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail-stop crash: in-flight requests fail, the queue is stranded,
    /// and the machine stays dead for `mttr_s` before it starts its
    /// recovery warmup.
    Crash {
        /// Mean-time-to-repair: how long the machine is dead, seconds.
        mttr_s: f64,
    },
    /// Transient hang: the server freezes for `duration_s`. In-flight
    /// work is paused, not lost; it finishes late by the frozen overlap.
    Hang {
        /// Freeze duration, seconds.
        duration_s: f64,
    },
}

impl FaultKind {
    /// Stable telemetry/display name for the fault kind (the instant
    /// event name stamped on the victim's track when it is injected).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Crash { .. } => "crash",
            FaultKind::Hang { .. } => "hang",
        }
    }

    /// Checks the kind's knobs.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for non-finite or non-positive durations.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            FaultKind::Crash { mttr_s } => {
                if !mttr_s.is_finite() || mttr_s <= 0.0 {
                    return Err(ConfigError::InvalidMttr(mttr_s));
                }
            }
            FaultKind::Hang { duration_s } => {
                if !duration_s.is_finite() || duration_s <= 0.0 {
                    return Err(ConfigError::InvalidFaultDuration(duration_s));
                }
            }
        }
        Ok(())
    }

    /// How long the server is impaired by this fault (recovery warmup
    /// excluded).
    pub fn impaired_s(&self) -> f64 {
        match *self {
            FaultKind::Crash { mttr_s } => mttr_s,
            FaultKind::Hang { duration_s } => duration_s,
        }
    }
}

/// One fault scheduled against one server at an absolute sim time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// Target server index.
    pub server: usize,
    /// Injection time, seconds from run start.
    pub at_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// MTBF/MTTR-driven stochastic crash generation: each server draws
/// exponentially distributed times-between-failures with mean `mtbf_s`;
/// each failure is a fail-stop crash lasting exactly `mttr_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtbfFaults {
    /// Mean time between failures per server, seconds.
    pub mtbf_s: f64,
    /// Repair time per failure, seconds.
    pub mttr_s: f64,
    /// Faults are drawn over `[0, horizon_s)`; size it to the expected
    /// run length.
    pub horizon_s: f64,
}

impl MtbfFaults {
    /// Checks MTBF, MTTR, and horizon.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for NaN, non-finite, or non-positive values.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.mtbf_s.is_finite() || self.mtbf_s <= 0.0 {
            return Err(ConfigError::InvalidMtbf(self.mtbf_s));
        }
        if !self.mttr_s.is_finite() || self.mttr_s <= 0.0 {
            return Err(ConfigError::InvalidMttr(self.mttr_s));
        }
        if !self.horizon_s.is_finite() || self.horizon_s <= 0.0 {
            return Err(ConfigError::InvalidFaultHorizon(self.horizon_s));
        }
        Ok(())
    }
}

/// Health checking and failover knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverConfig {
    /// If set, a health checker probes every server each
    /// `probe_interval_s`, routes new arrivals away from servers it
    /// believes down, and drains/redistributes a dead server's queue.
    /// If unset, the router stays oblivious to failures.
    pub enabled: bool,
    /// Seconds between health probes.
    pub probe_interval_s: f64,
    /// A hang that has lasted this long reads as a failure to the
    /// prober. Crashes are detected at the next probe whatever this is.
    pub probe_timeout_s: f64,
    /// Warmup after a crash repair before the server serves again
    /// (weight reload); applies whether or not failover is enabled.
    pub recovery_warmup_s: f64,
}

impl Default for FailoverConfig {
    fn default() -> FailoverConfig {
        FailoverConfig {
            enabled: true,
            probe_interval_s: 0.01,
            probe_timeout_s: 0.005,
            recovery_warmup_s: 0.01,
        }
    }
}

impl FailoverConfig {
    /// Checks the probe and warmup knobs.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for a non-positive probe interval or negative /
    /// non-finite timeout or warmup.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.probe_interval_s.is_finite() || self.probe_interval_s <= 0.0 {
            return Err(ConfigError::InvalidProbeInterval(self.probe_interval_s));
        }
        if !self.probe_timeout_s.is_finite() || self.probe_timeout_s < 0.0 {
            return Err(ConfigError::InvalidProbeTimeout(self.probe_timeout_s));
        }
        if !self.recovery_warmup_s.is_finite() || self.recovery_warmup_s < 0.0 {
            return Err(ConfigError::InvalidRecoveryWarmup(self.recovery_warmup_s));
        }
        Ok(())
    }

    /// The worst-case detection lag of a hang: it is detected at the
    /// first probe once it has lasted `probe_timeout_s`, so at most one
    /// probe interval past the timeout. A fail-stop crash is detected at
    /// the first probe after it, within `probe_interval_s`; the timeout
    /// gates only hangs.
    pub fn worst_case_detection_s(&self) -> f64 {
        self.probe_interval_s + self.probe_timeout_s
    }
}

/// A complete fault-injection plan for one run: explicitly scheduled
/// faults, optional MTBF/MTTR-driven crashes, and the failover policy
/// reacting to them.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Explicitly scheduled faults.
    pub scheduled: Vec<ScheduledFault>,
    /// Stochastic crash generation, if any.
    pub mtbf: Option<MtbfFaults>,
    /// Seed for the stochastic draws; independent of the serving seed so
    /// the same faults hit regardless of arrival-stream settings.
    pub fault_seed: u64,
    /// Health checking / failover behavior.
    pub failover: FailoverConfig,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan with no faults (and failover armed but idle).
    pub fn none() -> FaultPlan {
        FaultPlan {
            scheduled: Vec::new(),
            mtbf: None,
            fault_seed: 0,
            failover: FailoverConfig::default(),
        }
    }

    /// A plan with only explicitly scheduled faults.
    pub fn scheduled(faults: Vec<ScheduledFault>) -> FaultPlan {
        FaultPlan {
            scheduled: faults,
            ..FaultPlan::none()
        }
    }

    /// Replaces the failover policy.
    pub fn with_failover(mut self, failover: FailoverConfig) -> FaultPlan {
        self.failover = failover;
        self
    }

    /// Disables failover: the router stays oblivious to failures (the
    /// serve-through baseline).
    pub fn without_failover(mut self) -> FaultPlan {
        self.failover.enabled = false;
        self
    }

    /// Whether this plan can inject anything at all.
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty() && self.mtbf.is_none()
    }

    /// Checks every scheduled fault and the stochastic / failover knobs
    /// against a fleet of `servers`.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for NaN or negative times, out-of-range server
    /// indices, bad MTBF/MTTR, or bad probe knobs.
    pub fn validate(&self, servers: usize) -> Result<(), ConfigError> {
        for f in &self.scheduled {
            if f.server >= servers {
                return Err(ConfigError::FaultServerOutOfRange {
                    server: f.server,
                    servers,
                });
            }
            if !f.at_s.is_finite() || f.at_s < 0.0 {
                return Err(ConfigError::InvalidFaultTime(f.at_s));
            }
            f.kind.validate()?;
        }
        if let Some(m) = &self.mtbf {
            m.validate()?;
        }
        self.failover.validate()
    }

    /// Materializes the full, deterministic fault schedule for a fleet
    /// of `servers`: explicit faults plus MTBF-drawn crashes, sorted by
    /// time, with overlapping faults on the same server dropped (one
    /// fault at a time per machine).
    ///
    /// The schedule depends only on the plan and `servers` — never on
    /// the failover setting — so failover-on and failover-off runs can
    /// be compared under identical injected faults.
    pub fn materialize(&self, servers: usize) -> Vec<ScheduledFault> {
        let mut all = self.scheduled.clone();
        if let Some(m) = &self.mtbf {
            for s in 0..servers {
                // One independent stream per server, a pure function of
                // the plan seed and the server index.
                let mut rng =
                    StdRng::seed_from_u64(self.fault_seed ^ (s as u64).wrapping_mul(0xA24B_AED4));
                let mut t = 0.0f64;
                loop {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    t += -u.ln() * m.mtbf_s;
                    if t >= m.horizon_s {
                        break;
                    }
                    all.push(ScheduledFault {
                        server: s,
                        at_s: t,
                        kind: FaultKind::Crash { mttr_s: m.mttr_s },
                    });
                    // The machine cannot fail again while it is dead.
                    t += m.mttr_s;
                }
            }
        }
        all.sort_by(|a, b| a.at_s.total_cmp(&b.at_s).then(a.server.cmp(&b.server)));
        // Drop faults that land while the same server is still impaired
        // by an earlier one.
        let mut impaired_until = vec![0.0f64; servers];
        all.retain(|f| {
            if f.at_s < impaired_until[f.server] {
                return false;
            }
            impaired_until[f.server] = f.at_s + f.kind.impaired_s();
            true
        });
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(p.validate(4).is_ok());
        assert!(p.materialize(4).is_empty());
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let crash = |server, at_s, mttr_s| {
            FaultPlan::scheduled(vec![ScheduledFault {
                server,
                at_s,
                kind: FaultKind::Crash { mttr_s },
            }])
        };
        assert!(matches!(
            crash(9, 0.1, 0.1).validate(4),
            Err(ConfigError::FaultServerOutOfRange {
                server: 9,
                servers: 4
            })
        ));
        assert!(matches!(
            crash(0, f64::NAN, 0.1).validate(4),
            Err(ConfigError::InvalidFaultTime(_))
        ));
        assert!(matches!(
            crash(0, -1.0, 0.1).validate(4),
            Err(ConfigError::InvalidFaultTime(_))
        ));
        assert!(matches!(
            crash(0, 0.1, f64::NAN).validate(4),
            Err(ConfigError::InvalidMttr(_))
        ));
        assert!(matches!(
            crash(0, 0.1, -0.5).validate(4),
            Err(ConfigError::InvalidMttr(_))
        ));
        let mut p = FaultPlan::none();
        p.mtbf = Some(MtbfFaults {
            mtbf_s: f64::NAN,
            mttr_s: 0.1,
            horizon_s: 1.0,
        });
        assert!(matches!(p.validate(2), Err(ConfigError::InvalidMtbf(_))));
        p.mtbf = Some(MtbfFaults {
            mtbf_s: 1.0,
            mttr_s: -1.0,
            horizon_s: 1.0,
        });
        assert!(matches!(p.validate(2), Err(ConfigError::InvalidMttr(_))));
        p.mtbf = Some(MtbfFaults {
            mtbf_s: 1.0,
            mttr_s: 0.1,
            horizon_s: f64::INFINITY,
        });
        assert!(matches!(
            p.validate(2),
            Err(ConfigError::InvalidFaultHorizon(_))
        ));
        let mut p = FaultPlan::none();
        p.failover.probe_interval_s = 0.0;
        assert!(matches!(
            p.validate(2),
            Err(ConfigError::InvalidProbeInterval(_))
        ));
        let bad_hang = FaultPlan::scheduled(vec![ScheduledFault {
            server: 0,
            at_s: 0.1,
            kind: FaultKind::Hang { duration_s: 0.0 },
        }]);
        assert!(matches!(
            bad_hang.validate(1),
            Err(ConfigError::InvalidFaultDuration(_))
        ));
    }

    #[test]
    fn materialization_is_deterministic_and_failover_independent() {
        let plan = FaultPlan {
            scheduled: vec![ScheduledFault {
                server: 1,
                at_s: 0.25,
                kind: FaultKind::Hang { duration_s: 0.05 },
            }],
            mtbf: Some(MtbfFaults {
                mtbf_s: 0.5,
                mttr_s: 0.1,
                horizon_s: 2.0,
            }),
            fault_seed: 7,
            failover: FailoverConfig::default(),
        };
        let a = plan.materialize(4);
        let b = plan.materialize(4);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let off = plan.without_failover();
        assert_eq!(off.materialize(4), a);
        // Sorted by time.
        assert!(a.windows(2).all(|w| w[0].at_s <= w[1].at_s));
    }

    #[test]
    fn mtbf_draws_scale_with_rate_and_respect_horizon() {
        let plan = |mtbf_s: f64| FaultPlan {
            scheduled: Vec::new(),
            mtbf: Some(MtbfFaults {
                mtbf_s,
                mttr_s: 0.05,
                horizon_s: 10.0,
            }),
            fault_seed: 3,
            failover: FailoverConfig::default(),
        };
        let frequent = plan(0.5).materialize(8);
        let rare = plan(5.0).materialize(8);
        assert!(
            frequent.len() > 2 * rare.len(),
            "shorter MTBF must inject more faults: {} vs {}",
            frequent.len(),
            rare.len()
        );
        assert!(frequent.iter().all(|f| f.at_s < 10.0));
    }

    #[test]
    fn overlapping_faults_on_one_server_are_dropped() {
        let plan = FaultPlan::scheduled(vec![
            ScheduledFault {
                server: 0,
                at_s: 0.1,
                kind: FaultKind::Crash { mttr_s: 0.5 },
            },
            // Lands while server 0 is still dead: dropped.
            ScheduledFault {
                server: 0,
                at_s: 0.3,
                kind: FaultKind::Hang { duration_s: 0.1 },
            },
            // Different server: kept.
            ScheduledFault {
                server: 1,
                at_s: 0.3,
                kind: FaultKind::Hang { duration_s: 0.1 },
            },
        ]);
        let m = plan.materialize(2);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].server, 0);
        assert_eq!(m[1].server, 1);
    }

    #[test]
    fn detection_bound_is_interval_plus_timeout() {
        let f = FailoverConfig {
            enabled: true,
            probe_interval_s: 0.02,
            probe_timeout_s: 0.01,
            recovery_warmup_s: 0.0,
        };
        assert!((f.worst_case_detection_s() - 0.03).abs() < 1e-12);
    }
}
