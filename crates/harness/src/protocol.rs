//! The measurement protocol of §2 of the paper.
//!
//! > "Each node process executes a barrier. After the barrier, the
//! > collective operation is executed k times by all p processes … The
//! > test program is executed repeatedly for more than 22 times, with
//! > timing starting on the third iteration to exclude the warm-up
//! > effect … The test program is executed five times for each machine
//! > size p, with the value of k fixed at 20."
//!
//! [`Protocol`] captures every knob of that procedure, including the two
//! accuracy factors the paper's §9 lists that we can model: timer
//! resolution and unsynchronized node clocks (start skew).

use desim::SimDuration;

/// Measurement protocol parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Protocol {
    /// Iterations discarded for warm-up (paper: 2).
    pub warmup: usize,
    /// Timed iterations `k` (paper: 20).
    pub iterations: usize,
    /// Independent repetitions of the whole program (paper: 5). A
    /// repetition whose skew and noise draws equal the previous
    /// repetition's is not re-executed: [`measure`](crate::measure())
    /// reuses the previous result, which the deterministic simulator
    /// would reproduce exactly.
    pub repetitions: usize,
    /// Maximum per-node start skew, modeling unsynchronized clocks and
    /// OS scheduling jitter; each node's entry is drawn uniformly from
    /// `[0, max_skew]`.
    pub max_skew: SimDuration,
    /// Timer quantum of `MPI_Wtime` readings (0 = ideal timer).
    pub timer_resolution: SimDuration,
    /// Background-interference amplitude: each rank's CPU costs inflate
    /// by a factor drawn from `[1, 1 + os_noise]` per repetition. The
    /// paper ran in dedicated mode, so the default is 0; §9 lists shared
    /// use as an accuracy factor, modeled here for what-if studies.
    pub os_noise: f64,
    /// Seed for the skew and noise draws.
    pub seed: u64,
}

impl Default for Protocol {
    fn default() -> Self {
        Protocol::paper()
    }
}

impl Protocol {
    /// Largest accepted `warmup + iterations`. The executed program has
    /// one segment per run, and its timestamps take `runs × p` slots.
    pub const MAX_RUNS_PER_REPETITION: usize = 10_000;

    /// Largest accepted `repetitions`.
    pub const MAX_REPETITIONS: usize = 10_000;

    /// Largest accepted `max_skew`: one second, five orders of magnitude
    /// beyond the paper's 10 µs.
    pub const MAX_SKEW: SimDuration = SimDuration::from_secs(1);

    /// The paper's exact protocol: 2 warm-up + 20 timed iterations, five
    /// repetitions, ±10 µs start skew, 0.1 µs timer quantum.
    pub fn paper() -> Self {
        Protocol {
            warmup: 2,
            iterations: 20,
            repetitions: 5,
            max_skew: SimDuration::from_micros(10),
            timer_resolution: SimDuration::from_nanos(100),
            os_noise: 0.0,
            seed: 0x48_50_43_41_39_37, // "HPCA97"
        }
    }

    /// A cheap protocol for unit tests and smoke runs: 1 warm-up + 3
    /// timed iterations, two repetitions, no skew, ideal timer. With no
    /// skew and no noise both repetitions draw the same inputs, so
    /// [`measure`](crate::measure()) executes the program once and
    /// counts it twice.
    pub fn quick() -> Self {
        Protocol {
            warmup: 1,
            iterations: 3,
            repetitions: 2,
            max_skew: SimDuration::ZERO,
            timer_resolution: SimDuration::ZERO,
            os_noise: 0.0,
            seed: 7,
        }
    }

    /// An idealized protocol: no warm-up, one iteration, one repetition,
    /// perfectly synchronized clocks. Useful for isolating model
    /// behaviour from methodology effects.
    pub fn ideal() -> Self {
        Protocol {
            warmup: 0,
            iterations: 1,
            repetitions: 1,
            max_skew: SimDuration::ZERO,
            timer_resolution: SimDuration::ZERO,
            os_noise: 0.0,
            seed: 0,
        }
    }

    /// Replaces the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total collective executions per repetition (warm-up + timed),
    /// saturating on an invalid protocol.
    pub fn runs_per_repetition(&self) -> usize {
        self.warmup.saturating_add(self.iterations)
    }

    /// Validates protocol sanity.
    ///
    /// # Errors
    ///
    /// Returns a message naming the field if `iterations` or
    /// `repetitions` is zero, `warmup + iterations` exceeds
    /// [`MAX_RUNS_PER_REPETITION`](Self::MAX_RUNS_PER_REPETITION),
    /// `repetitions` exceeds [`MAX_REPETITIONS`](Self::MAX_REPETITIONS),
    /// `max_skew` exceeds [`MAX_SKEW`](Self::MAX_SKEW), or the noise
    /// amplitude is negative or non-finite.
    pub fn validate(&self) -> Result<(), String> {
        if self.iterations == 0 {
            return Err("iterations must be positive".into());
        }
        if self.runs_per_repetition() > Self::MAX_RUNS_PER_REPETITION {
            return Err(format!(
                "warmup + iterations must be at most {}, got warmup {} and iterations {}",
                Self::MAX_RUNS_PER_REPETITION,
                self.warmup,
                self.iterations
            ));
        }
        if self.repetitions == 0 {
            return Err("repetitions must be positive".into());
        }
        if self.repetitions > Self::MAX_REPETITIONS {
            return Err(format!(
                "repetitions must be at most {}, got {}",
                Self::MAX_REPETITIONS,
                self.repetitions
            ));
        }
        if self.max_skew > Self::MAX_SKEW {
            return Err(format!(
                "max_skew must be at most {}, got {}",
                Self::MAX_SKEW,
                self.max_skew
            ));
        }
        if !self.os_noise.is_finite() || self.os_noise < 0.0 {
            return Err(format!(
                "os_noise must be finite and >= 0, got {}",
                self.os_noise
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_protocol_matches_section_2() {
        let p = Protocol::paper();
        assert_eq!(p.warmup, 2);
        assert_eq!(p.iterations, 20);
        assert_eq!(p.repetitions, 5);
        assert_eq!(p.runs_per_repetition(), 22, "\"more than 22 times\"");
        assert!(p.validate().is_ok());
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(Protocol::default(), Protocol::paper());
    }

    #[test]
    fn invalid_protocols_rejected() {
        let mut p = Protocol::quick();
        p.iterations = 0;
        assert!(p.validate().is_err());
        let mut p = Protocol::quick();
        p.repetitions = 0;
        assert!(p.validate().is_err());

        // Each would overflow or over-allocate in `measure`; the error
        // names the field.
        let broken = |edit: fn(&mut Protocol)| {
            let mut p = Protocol::paper();
            edit(&mut p);
            p
        };
        let cases = [
            ("max_skew", broken(|p| p.max_skew = SimDuration::MAX)),
            (
                "max_skew",
                broken(|p| p.max_skew = Protocol::MAX_SKEW + SimDuration::from_nanos(1)),
            ),
            ("warmup", broken(|p| p.warmup = usize::MAX)),
            ("iterations", broken(|p| p.iterations = usize::MAX)),
            ("repetitions", broken(|p| p.repetitions = usize::MAX)),
        ];
        for (field, p) in cases {
            let err = p.validate().expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
        }

        let at_caps = Protocol {
            warmup: 0,
            iterations: Protocol::MAX_RUNS_PER_REPETITION,
            repetitions: Protocol::MAX_REPETITIONS,
            max_skew: Protocol::MAX_SKEW,
            ..Protocol::paper()
        };
        assert_eq!(
            at_caps.validate(),
            Ok(()),
            "the caps themselves are accepted"
        );
    }

    #[test]
    fn noise_validation() {
        let mut p = Protocol::quick();
        p.os_noise = -0.1;
        assert!(p.validate().is_err());
        p.os_noise = f64::NAN;
        assert!(p.validate().is_err());
        p.os_noise = 0.25;
        assert!(p.validate().is_ok());
    }

    #[test]
    fn seed_builder() {
        assert_eq!(Protocol::quick().with_seed(99).seed, 99);
    }
}
