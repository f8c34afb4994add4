//! Admission control for the serve path.
//!
//! The hysteresis shape of the cluster-search degradation policy
//! (DESIGN.md §11): a hard enter threshold, a lower exit threshold
//! (`exit_pct` of the enter level), and a window of consecutive calm
//! observations before recovering. That keeps the server from flapping
//! between shedding and accepting when the queue hovers around capacity
//! — exactly the oscillation the degradation policy exists to prevent
//! on the clustering path.
//!
//! The controller is a pure function of the depth observations fed to
//! it (no clocks, no randomness), so the state machine is unit-testable
//! deterministically and covered by `ci/check_determinism.sh`.

/// Hysteresis admission controller over queue depth.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    /// Shed when observed depth reaches this level.
    enter_depth: usize,
    /// Candidate to recover when depth falls to or below this level.
    exit_depth: usize,
    /// Consecutive calm observations required to recover.
    window: usize,
    shedding: bool,
    calm_streak: usize,
    sheds: u64,
    transitions: u64,
}

impl AdmissionControl {
    /// Enter shedding at `queue_cap`, exit at `exit_pct`% of it, after
    /// `window` consecutive calm observations.
    pub fn new(queue_cap: usize, exit_pct: usize, window: usize) -> Self {
        let enter_depth = queue_cap.max(1);
        AdmissionControl {
            enter_depth,
            exit_depth: enter_depth * exit_pct.min(100) / 100,
            window: window.max(1),
            shedding: false,
            calm_streak: 0,
            sheds: 0,
            transitions: 0,
        }
    }

    /// Observe the queue depth at an admission decision. Returns `true`
    /// when the request should be admitted, `false` when shed.
    pub fn admit(&mut self, depth: usize) -> bool {
        if self.shedding {
            if depth <= self.exit_depth {
                self.calm_streak += 1;
                if self.calm_streak >= self.window {
                    self.shedding = false;
                    self.calm_streak = 0;
                    self.transitions += 1;
                }
            } else {
                self.calm_streak = 0;
            }
        } else if depth >= self.enter_depth {
            self.shedding = true;
            self.calm_streak = 0;
            self.transitions += 1;
        }
        if self.shedding {
            self.sheds += 1;
            false
        } else {
            true
        }
    }

    /// Whether the controller is currently shedding.
    pub fn shedding(&self) -> bool {
        self.shedding
    }

    /// Requests shed so far.
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Shed-state transitions so far (enter + exit).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> AdmissionControl {
        // cap 8, exit at 50% (4), recover after 3 calm observations.
        AdmissionControl::new(8, 50, 3)
    }

    #[test]
    fn admits_below_capacity() {
        let mut c = ctl();
        for depth in 0..8 {
            assert!(c.admit(depth), "depth {depth} must be admitted");
        }
        assert!(!c.shedding());
        assert_eq!(c.sheds(), 0);
    }

    #[test]
    fn sheds_at_capacity_and_recovers_with_hysteresis() {
        let mut c = ctl();
        assert!(!c.admit(8), "at capacity → shed");
        assert!(c.shedding());
        // Depth between exit (4) and enter (8): still shedding — this is
        // the hysteresis band that prevents flapping.
        assert!(!c.admit(6));
        assert!(!c.admit(5));
        // Calm observations start the recovery window.
        assert!(!c.admit(4));
        assert!(!c.admit(3));
        // A spike inside the window resets the streak.
        assert!(!c.admit(7));
        assert!(!c.admit(4));
        assert!(!c.admit(2));
        // Third consecutive calm observation exits shedding; the exiting
        // observation itself is admitted.
        assert!(c.admit(1));
        assert!(!c.shedding());
        assert_eq!(c.transitions(), 2, "one enter + one exit");
        assert_eq!(c.sheds(), 8);
    }

    #[test]
    fn deterministic_for_a_fixed_observation_sequence() {
        let seq: Vec<usize> = (0..64).map(|i| (i * 7 + 3) % 12).collect();
        let run =
            |mut c: AdmissionControl| -> Vec<bool> { seq.iter().map(|&d| c.admit(d)).collect() };
        assert_eq!(run(ctl()), run(ctl()));
    }
}
