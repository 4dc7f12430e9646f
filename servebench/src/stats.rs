//! The benchmark's own arithmetic: medians, the tail-percentile rule, and
//! the open-loop schedule that times each request from when it was due.

use std::time::{Duration, Instant};

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count); `NaN` when
/// empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A tail latency: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it, with the count it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, `100 · (n − 10) / n`.
    pub percentile: f64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples ranked beyond [`Self::value`] (10, or 0 when `n ≤ 10` and
    /// the maximum is all the sample supports).
    pub beyond: usize,
}

impl Tail {
    /// `p97.5 of 400 samples (10 beyond)`, for the run's report lines.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "p{:.1} of {} samples ({} beyond)",
            self.percentile, self.samples, self.beyond
        )
    }
}

/// The tail rule: sorted ascending, the sample with exactly
/// [`TAIL_BEYOND`] samples ranked after it. With too few samples it falls
/// back to the maximum and says so through [`Tail::beyond`].
#[must_use]
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return Tail {
            value: s.last().copied().unwrap_or(f64::NAN),
            percentile: 100.0,
            samples: n,
            beyond: 0,
        };
    }
    Tail {
        value: s[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
        beyond: TAIL_BEYOND,
    }
}

/// A monotonic clock the open-loop generator reads and sleeps on; the
/// tests drive the generator with a simulated one.
pub trait Clock {
    /// Seconds since the schedule's origin.
    fn now(&self) -> f64;
    /// Blocks until [`Clock::now`] reaches `t` (returns at once if past).
    fn sleep_until(&mut self, t: f64);
}

/// The wall clock, with its origin at construction.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn sleep_until(&mut self, t: f64) {
        let wait = t - self.now();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }
}

/// One open-loop request: when it was due, sent and answered (seconds
/// since the origin).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpenSample {
    /// Scheduled send time.
    pub due: f64,
    /// Actual send time.
    pub sent: f64,
    /// Response time.
    pub done: f64,
}

impl OpenSample {
    /// Latency from the due time: includes the wait a stall in front of
    /// this request imposed on it.
    #[must_use]
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent this request.
    #[must_use]
    pub fn late(&self) -> f64 {
        self.sent - self.due
    }
}

/// Runs an open loop on one connection: request `i` is due at
/// `i · period` and is sent at its due time, or as soon as the previous
/// response arrived when that is later. Stops before the first request
/// due at or after `end`. `send` performs request `i`.
pub fn run_open_loop<C: Clock>(
    clock: &mut C,
    period: f64,
    end: f64,
    mut send: impl FnMut(&mut C, u64),
) -> Vec<OpenSample> {
    let mut samples = Vec::new();
    for seq in 0u64.. {
        let due = seq as f64 * period;
        if due >= end {
            break;
        }
        clock.sleep_until(due);
        let sent = clock.now();
        send(clock, seq);
        samples.push(OpenSample {
            due,
            sent,
            done: clock.now(),
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        // 400 samples support p97.5; order of input does not matter.
        let xs: Vec<f64> = (0..400).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 389.0);
        assert!((t.percentile - 97.5).abs() < 1e-12);
        assert_eq!(t.describe(), "p97.5 of 400 samples (10 beyond)");
    }

    #[test]
    fn tail_smallest_sample_that_supports_the_rule() {
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond), (0.0, 10));
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_with_too_few_samples_reports_the_max_and_no_beyond() {
        let t = tail(&[5.0, 9.0, 7.0]);
        assert_eq!((t.value, t.beyond, t.samples), (9.0, 0, 3));
        assert_eq!(t.percentile, 100.0);
    }

    /// A simulated clock: sending advances time by the request's service
    /// time, sleeping jumps forward.
    struct SimClock {
        t: f64,
    }

    impl Clock for SimClock {
        fn now(&self) -> f64 {
            self.t
        }
        fn sleep_until(&mut self, t: f64) {
            self.t = self.t.max(t);
        }
    }

    #[test]
    fn open_loop_times_from_due_and_a_stall_delays_the_requests_behind_it() {
        // 10 requests per second; request 2 stalls for 350 ms, the rest
        // take 20 ms.
        let mut clock = SimClock { t: 0.0 };
        let service = |seq: u64| if seq == 2 { 0.35 } else { 0.02 };
        let samples = run_open_loop(&mut clock, 0.1, 0.95, |c, seq| c.t += service(seq));
        assert_eq!(samples.len(), 10);
        let lat: Vec<f64> = samples.iter().map(OpenSample::latency).collect();
        let late: Vec<f64> = samples.iter().map(OpenSample::late).collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // Before the stall: on time.
        assert!(close(lat[0], 0.02) && close(late[0], 0.0));
        assert!(close(lat[2], 0.35) && close(late[2], 0.0));
        // Request 3 was due at 0.3 but could only go at 0.55: its latency
        // counts the 250 ms it waited, not just its 20 ms round trip.
        assert!(close(late[3], 0.25) && close(lat[3], 0.27));
        // Request 4 (due 0.4) goes at 0.57, request 5 (due 0.5) at 0.59.
        assert!(close(late[4], 0.17) && close(lat[4], 0.19));
        assert!(close(late[5], 0.09) && close(lat[5], 0.11));
        assert!(close(late[6], 0.01) && close(lat[6], 0.03));
        // Request 7 (due 0.7) finds the connection idle again.
        assert!(close(late[7], 0.0) && close(lat[7], 0.02));
    }

    #[test]
    fn open_loop_stops_before_the_first_request_due_at_the_end() {
        let mut clock = SimClock { t: 0.0 };
        let mut sent = Vec::new();
        let samples = run_open_loop(&mut clock, 0.25, 1.0, |c, seq| {
            c.t += 0.01;
            sent.push(seq);
        });
        assert_eq!(sent, [0, 1, 2, 3]);
        assert_eq!(samples.last().map(|s| s.due), Some(0.75));
    }
}
