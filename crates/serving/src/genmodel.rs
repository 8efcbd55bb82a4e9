//! The generation request model: bounded token-count distributions and
//! the KV-cache footprint of an autoregressive request.
//!
//! Lesson 10 ("applications limit latency, not batch size") meets its
//! hardest workload here: autoregressive inference, where a request is
//! not one batched forward pass but a prefill followed by a
//! variable-length decode loop that pins KV-cache HBM for its whole
//! residency. Every distribution in this module is **bounded** — a
//! request's worst-case token count is known at admission — so KV
//! residency has a hard per-request ceiling and the decode engine in
//! [`crate::des`] can reserve capacity up front and never deadlock.

use rand::rngs::StdRng;
use rand::Rng;

use crate::des::ConfigError;

/// A bounded distribution over token counts (every draw is >= 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenDistribution {
    /// Every request draws exactly this many tokens.
    Fixed(u64),
    /// Uniform over `[min, max]`, both inclusive.
    Uniform {
        /// Smallest possible draw (>= 1).
        min: u64,
        /// Largest possible draw (>= min).
        max: u64,
    },
    /// Geometric with the given mean, truncated to `[1, max]` — the
    /// classic decode-length shape (many short generations, a long
    /// tail), kept bounded so residency stays bounded.
    Geometric {
        /// Mean of the untruncated geometric (>= 1, finite).
        mean: f64,
        /// Hard ceiling applied to every draw (>= 1).
        max: u64,
    },
}

impl TokenDistribution {
    /// Checks the distribution's parameters.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroTokens`] when a bound is 0,
    /// [`ConfigError::EmptyTokenRange`] when `min > max`, or
    /// [`ConfigError::InvalidTokenMean`] for a non-finite or sub-1 mean.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            TokenDistribution::Fixed(n) => {
                if n == 0 {
                    return Err(ConfigError::ZeroTokens);
                }
            }
            TokenDistribution::Uniform { min, max } => {
                if min == 0 {
                    return Err(ConfigError::ZeroTokens);
                }
                if min > max {
                    return Err(ConfigError::EmptyTokenRange { min, max });
                }
            }
            TokenDistribution::Geometric { mean, max } => {
                if max == 0 {
                    return Err(ConfigError::ZeroTokens);
                }
                if !mean.is_finite() || mean < 1.0 {
                    return Err(ConfigError::InvalidTokenMean(mean));
                }
            }
        }
        Ok(())
    }

    /// Largest value a draw can take (the residency planner's input).
    pub fn max_tokens(&self) -> u64 {
        match *self {
            TokenDistribution::Fixed(n) => n,
            TokenDistribution::Uniform { max, .. } => max,
            TokenDistribution::Geometric { max, .. } => max,
        }
    }

    /// Expected draw. Exact for `Fixed` and `Uniform`; for `Geometric`
    /// this is the untruncated mean capped at `max` (the truncation
    /// correction is small whenever `max >> mean`, the intended regime).
    pub fn mean_tokens(&self) -> f64 {
        match *self {
            TokenDistribution::Fixed(n) => n as f64,
            TokenDistribution::Uniform { min, max } => (min + max) as f64 / 2.0,
            TokenDistribution::Geometric { mean, max } => mean.min(max as f64),
        }
    }

    /// Draws one token count. Deterministic given the RNG state; every
    /// variant except `Fixed` consumes exactly one draw.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        self.sampler().sample(rng)
    }

    /// This distribution prepared for many draws: the geometric's
    /// constant `ln(1 - 1/mean)` is computed here, once, instead of on
    /// every draw.
    pub(crate) fn sampler(&self) -> TokenSampler {
        let ln_keep = match *self {
            TokenDistribution::Geometric { mean, .. } => (1.0 - 1.0 / mean).ln(),
            _ => 0.0,
        };
        TokenSampler {
            dist: *self,
            ln_keep,
        }
    }
}

/// A [`TokenDistribution`] with its per-distribution constant computed:
/// the one draw path behind [`TokenDistribution::sample`] and the decode
/// loop's per-request draws.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TokenSampler {
    dist: TokenDistribution,
    /// `ln(1 - 1/mean)` for a geometric; unused otherwise.
    ln_keep: f64,
}

impl TokenSampler {
    /// Draws one token count, consuming the RNG exactly as
    /// [`TokenDistribution::sample`] documents.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> u64 {
        match self.dist {
            TokenDistribution::Fixed(n) => n,
            TokenDistribution::Uniform { min, max } => {
                // Half-open gen_range; min >= 1 keeps `span + 1` from
                // overflowing even at max == u64::MAX.
                let span = max - min;
                min + rng.gen_range(0..span + 1)
            }
            TokenDistribution::Geometric { mean, max } => {
                if mean <= 1.0 {
                    // Degenerate geometric: every draw is 1 (still
                    // consume a draw so the stream shape is uniform
                    // across parameter values).
                    let _ = rng.gen_range(f64::EPSILON..1.0);
                    return 1;
                }
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                // Inverse CDF of the geometric on {1, 2, ...}: `u` and
                // `1 - u` are identically distributed, so ln(u) serves.
                let k = 1.0 + (u.ln() / self.ln_keep).floor();
                (k as u64).clamp(1, max)
            }
        }
    }
}

/// The shape of a generation workload: sampled prompt and output token
/// counts, plus the KV-cache bytes each resident token pins in HBM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationModel {
    /// Prompt (prefill) length distribution, tokens.
    pub prompt: TokenDistribution,
    /// Output (decode) length distribution, tokens.
    pub output: TokenDistribution,
    /// KV-cache bytes pinned per resident token (for a real model:
    /// `2 x layers x kv_heads x head_dim x bytes_per_element`).
    pub kv_bytes_per_token: u64,
}

impl GenerationModel {
    /// Checks both distributions and the KV footprint.
    ///
    /// # Errors
    ///
    /// Everything [`TokenDistribution::validate`] rejects, plus
    /// [`ConfigError::ZeroKvBytesPerToken`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.prompt.validate()?;
        self.output.validate()?;
        if self.kv_bytes_per_token == 0 {
            return Err(ConfigError::ZeroKvBytesPerToken);
        }
        Ok(())
    }

    /// KV bytes one request with the given sampled lengths pins while
    /// resident. The engine reserves this at admission: the full
    /// prompt+output footprint, i.e. the request's residency at its
    /// final decode step.
    pub fn request_kv_bytes(&self, prompt: u64, output: u64) -> u64 {
        prompt
            .saturating_add(output)
            .saturating_mul(self.kv_bytes_per_token)
    }

    /// Worst-case KV bytes any single request can pin. Admission
    /// capacity must cover this, or the head of the FIFO could never be
    /// admitted (checked by `GenConfig::validate`).
    pub fn peak_request_kv_bytes(&self) -> u64 {
        self.request_kv_bytes(self.prompt.max_tokens(), self.output.max_tokens())
    }

    /// Draws one request's `(prompt, output)` token counts.
    pub fn sample(&self, rng: &mut StdRng) -> (u64, u64) {
        (self.prompt.sample(rng), self.output.sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn validation_rejects_degenerate_distributions() {
        assert_eq!(
            TokenDistribution::Fixed(0).validate(),
            Err(ConfigError::ZeroTokens)
        );
        assert_eq!(
            TokenDistribution::Uniform { min: 0, max: 4 }.validate(),
            Err(ConfigError::ZeroTokens)
        );
        assert_eq!(
            TokenDistribution::Uniform { min: 5, max: 4 }.validate(),
            Err(ConfigError::EmptyTokenRange { min: 5, max: 4 })
        );
        // NaN payloads defeat `assert_eq!` (NaN != NaN), so match.
        assert!(matches!(
            TokenDistribution::Geometric {
                mean: f64::NAN,
                max: 64
            }
            .validate(),
            Err(ConfigError::InvalidTokenMean(m)) if m.is_nan()
        ));
        assert_eq!(
            TokenDistribution::Geometric { mean: 0.5, max: 64 }.validate(),
            Err(ConfigError::InvalidTokenMean(0.5))
        );
        assert!(TokenDistribution::Geometric {
            mean: 32.0,
            max: 256
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn samples_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let dists = [
            TokenDistribution::Fixed(17),
            TokenDistribution::Uniform { min: 3, max: 9 },
            TokenDistribution::Geometric { mean: 8.0, max: 40 },
        ];
        for d in dists {
            for _ in 0..2000 {
                let x = d.sample(&mut rng);
                assert!(x >= 1, "{d:?} drew {x}");
                assert!(x <= d.max_tokens(), "{d:?} drew {x}");
            }
        }
    }

    #[test]
    fn geometric_mean_is_roughly_right() {
        let d = TokenDistribution::Geometric {
            mean: 32.0,
            max: 100_000,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 32.0).abs() < 1.0, "empirical mean {mean}");
    }

    #[test]
    fn uniform_covers_both_endpoints() {
        let d = TokenDistribution::Uniform { min: 2, max: 4 };
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[d.sample(&mut rng) as usize] = true;
        }
        assert!(seen[2] && seen[3] && seen[4]);
        assert!(!seen[0] && !seen[1]);
    }

    #[test]
    fn sampling_is_deterministic_given_seed() {
        let m = GenerationModel {
            prompt: TokenDistribution::Uniform { min: 16, max: 512 },
            output: TokenDistribution::Geometric {
                mean: 64.0,
                max: 256,
            },
            kv_bytes_per_token: 1024,
        };
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100).map(|_| m.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn kv_footprint_math() {
        let m = GenerationModel {
            prompt: TokenDistribution::Fixed(100),
            output: TokenDistribution::Uniform { min: 1, max: 28 },
            kv_bytes_per_token: 1000,
        };
        assert!(m.validate().is_ok());
        assert_eq!(m.request_kv_bytes(100, 28), 128_000);
        assert_eq!(m.peak_request_kv_bytes(), 128_000);
        // Saturating, never overflowing.
        let huge = GenerationModel {
            prompt: TokenDistribution::Fixed(u64::MAX),
            output: TokenDistribution::Fixed(u64::MAX),
            kv_bytes_per_token: u64::MAX,
        };
        assert_eq!(huge.peak_request_kv_bytes(), u64::MAX);
    }
}
