//! Queueing resources.
//!
//! [`FcfsServer`] models a single-server FIFO queue with known service
//! times. Because service is first-come-first-served and the kernel
//! delivers events in global timestamp order, the completion time of a job
//! is fully determined at submission: `max(now, free_at) + service`. The
//! server therefore needs no internal event machinery — callers submit a
//! job and schedule their own completion event at the returned time.

use crate::time::{SimDuration, SimTime};

/// A single FIFO server (one disk arm, one CPU, one log device…).
#[derive(Debug, Clone)]
pub struct FcfsServer {
    name: String,
    free_at: SimTime,
    busy: SimDuration,
    jobs: u64,
    queue_wait: SimDuration,
}

impl FcfsServer {
    /// Create an idle server. `name` is used only in reports.
    pub fn new(name: impl Into<String>) -> Self {
        FcfsServer {
            name: name.into(),
            free_at: SimTime::ZERO,
            busy: SimDuration::ZERO,
            jobs: 0,
            queue_wait: SimDuration::ZERO,
        }
    }

    /// Submit a job arriving at `now` that needs `service` time.
    /// Returns the absolute completion time.
    pub fn submit(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let start = self.free_at.max(now);
        self.queue_wait += start - now;
        let done = start + service;
        self.free_at = done;
        self.busy += service;
        self.jobs += 1;
        done
    }

    /// Name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Jobs served so far.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Total service time delivered so far.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Total time jobs spent waiting in queue (excludes service).
    pub fn total_queue_wait(&self) -> SimDuration {
        self.queue_wait
    }

    /// Fraction of `[0, horizon]` the server was busy.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            0.0
        } else {
            (self.busy.as_micros() as f64 / horizon.as_micros() as f64).min(1.0)
        }
    }

    /// Next instant the server is idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Reset statistics (jobs, busy time, queue wait) but keep `free_at`,
    /// so a measurement interval can start after warmup without emptying
    /// the queue.
    pub fn reset_stats(&mut self) {
        self.busy = SimDuration::ZERO;
        self.jobs = 0;
        self.queue_wait = SimDuration::ZERO;
    }
}

/// A bank of identical FIFO servers with a shared arrival stream routed to
/// whichever member is free earliest (models a disk array where the caller
/// does not care which spindle serves the request).
#[derive(Debug, Clone)]
pub struct ServerBank {
    servers: Vec<FcfsServer>,
}

impl ServerBank {
    /// Create `n` idle servers named `name[0..n)`.
    pub fn new(name: &str, n: usize) -> Self {
        assert!(n > 0, "a server bank needs at least one member");
        ServerBank {
            servers: (0..n)
                .map(|i| FcfsServer::new(format!("{name}[{i}]")))
                .collect(),
        }
    }

    /// Number of member servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the bank is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Submit a job to the earliest-free member.
    pub fn submit(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let idx = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.free_at())
            .map(|(i, _)| i)
            .expect("a server bank always has at least one member (asserted at construction)");
        self.servers[idx].submit(now, service)
    }

    /// Submit a job to a specific member (e.g. page → disk mapping).
    ///
    /// # Panics
    /// If `member` is out of range — the caller's routing (e.g. a disk
    /// layout) disagrees with the bank size, which is a configuration
    /// invariant, not a run condition.
    pub fn submit_to(&mut self, member: usize, now: SimTime, service: SimDuration) -> SimTime {
        let n = self.servers.len();
        self.servers
            .get_mut(member)
            .unwrap_or_else(|| {
                panic!("server bank has {n} members but a job was routed to member {member}; the caller's routing table is out of sync with the bank size")
            })
            .submit(now, service)
    }

    /// Access a member for statistics.
    ///
    /// # Panics
    /// If `i` is out of range (same invariant as [`ServerBank::submit_to`]).
    pub fn member(&self, i: usize) -> &FcfsServer {
        let n = self.servers.len();
        self.servers
            .get(i)
            .unwrap_or_else(|| panic!("server bank has {n} members; member {i} does not exist"))
    }

    /// Mean utilisation across members over `[0, horizon]`.
    pub fn mean_utilization(&self, horizon: SimTime) -> f64 {
        self.servers
            .iter()
            .map(|s| s.utilization(horizon))
            .sum::<f64>()
            / self.servers.len() as f64
    }

    /// Reset statistics on every member.
    pub fn reset_stats(&mut self) {
        for s in &mut self.servers {
            s.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = FcfsServer::new("cpu");
        let done = s.submit(SimTime::from_millis(10), ms(5));
        assert_eq!(done, SimTime::from_millis(15));
        assert_eq!(s.total_queue_wait(), SimDuration::ZERO);
    }

    #[test]
    fn back_to_back_jobs_queue() {
        let mut s = FcfsServer::new("disk");
        let t0 = SimTime::from_millis(0);
        let first = s.submit(t0, ms(10));
        let second = s.submit(t0, ms(10));
        assert_eq!(first, SimTime::from_millis(10));
        assert_eq!(second, SimTime::from_millis(20));
        assert_eq!(s.total_queue_wait(), ms(10));
    }

    #[test]
    fn idle_gap_is_not_busy_time() {
        let mut s = FcfsServer::new("disk");
        s.submit(SimTime::from_millis(0), ms(10));
        s.submit(SimTime::from_millis(100), ms(10));
        assert_eq!(s.busy_time(), ms(20));
        let u = s.utilization(SimTime::from_millis(200));
        assert!((u - 0.1).abs() < 1e-9, "{u}");
    }

    #[test]
    fn bank_routes_to_earliest_free() {
        let mut bank = ServerBank::new("disk", 2);
        let t0 = SimTime::ZERO;
        assert_eq!(bank.submit(t0, ms(10)), SimTime::from_millis(10));
        assert_eq!(bank.submit(t0, ms(10)), SimTime::from_millis(10));
        // both busy now, third job queues behind one of them
        assert_eq!(bank.submit(t0, ms(10)), SimTime::from_millis(20));
    }

    #[test]
    fn bank_directed_submission() {
        let mut bank = ServerBank::new("disk", 3);
        bank.submit_to(1, SimTime::ZERO, ms(7));
        assert_eq!(bank.member(1).jobs(), 1);
        assert_eq!(bank.member(0).jobs(), 0);
    }

    #[test]
    fn reset_stats_keeps_backlog() {
        let mut s = FcfsServer::new("disk");
        s.submit(SimTime::ZERO, ms(50));
        s.reset_stats();
        assert_eq!(s.jobs(), 0);
        // Queue backlog survives: next job still waits for the first.
        let done = s.submit(SimTime::ZERO, ms(10));
        assert_eq!(done, SimTime::from_millis(60));
    }
}
