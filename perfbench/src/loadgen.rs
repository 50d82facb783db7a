//! Open-loop load generation with due-time latency accounting.
//!
//! Request `i` is *due* at `i × period` after the start, whatever happened
//! to earlier requests. Its latency is measured from that due time, not
//! from when it was actually sent, so a stall that delays the sender is
//! charged to every request it held back — the waiting a real client
//! arriving on schedule would see (no coordinated omission).

use std::time::Duration;

/// A fixed-rate schedule.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    period: Duration,
}

impl OpenLoop {
    /// `rate` requests per second.
    pub fn per_second(rate: u32) -> Self {
        assert!(rate > 0, "open-loop rate must be positive");
        OpenLoop { period: Duration::from_secs(1) / rate }
    }

    /// Offset from the start at which request `i` is due.
    pub fn due(&self, i: u32) -> Duration {
        self.period * i
    }
}

/// Per-request latencies (from due time) and how late the sender ran.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    /// Due-to-acknowledgement latency of each request, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// The largest send-minus-due lag seen, in milliseconds.
    pub late_max_ms: f64,
}

impl Recorder {
    /// Record one request that was due at `due`, left at `sent` and was
    /// acknowledged at `acked` (all offsets from the schedule's start).
    pub fn record(&mut self, due: Duration, sent: Duration, acked: Duration) {
        self.latencies_ms.push(acked.saturating_sub(due).as_secs_f64() * 1e3);
        self.late_max_ms = self.late_max_ms.max(sent.saturating_sub(due).as_secs_f64() * 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// One synchronous connection on the schedule: a request leaves at its
    /// due time or when the previous ack arrives, whichever is later.
    fn simulate(schedule: OpenLoop, service: &[Duration]) -> Recorder {
        let mut rec = Recorder::default();
        let mut prev_ack = Duration::ZERO;
        for (i, &s) in service.iter().enumerate() {
            let due = schedule.due(i as u32);
            let sent = due.max(prev_ack);
            let acked = sent + s;
            rec.record(due, sent, acked);
            prev_ack = acked;
        }
        rec
    }

    #[test]
    fn schedule_is_fixed_rate() {
        let s = OpenLoop::per_second(500);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), 2 * MS);
        assert_eq!(s.due(500), Duration::from_secs(1));
    }

    #[test]
    fn on_time_requests_measure_service_time() {
        let rec = simulate(OpenLoop::per_second(500), &[MS; 10]);
        assert!(rec.latencies_ms.iter().all(|&l| (l - 1.0).abs() < 1e-9));
        assert_eq!(rec.late_max_ms, 0.0);
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_held_back() {
        // Request 0 takes 100 ms; the rest take 1 ms each. At 2 ms per
        // request, requests 1..=49 were due during the stall.
        let mut service = vec![MS; 120];
        service[0] = 100 * MS;
        let rec = simulate(OpenLoop::per_second(500), &service);
        assert_eq!(rec.latencies_ms[0], 100.0);
        // Request 1 was due at 2 ms, left at 100 ms, acked at 101 ms: 99 ms,
        // not the 1 ms a closed-loop (send-time) measurement would report.
        assert!((rec.latencies_ms[1] - 99.0).abs() < 1e-9);
        assert!((rec.late_max_ms - 98.0).abs() < 1e-9);
        // The backlog drains by 1 ms per 2 ms period, clearing at request 99.
        assert!(rec.latencies_ms[2] < rec.latencies_ms[1]);
        assert!((rec.latencies_ms[98] - 2.0).abs() < 1e-9);
        assert!((rec.latencies_ms[119] - 1.0).abs() < 1e-9);
        let held_back = rec.latencies_ms.iter().filter(|&&l| l > 1.0 + 1e-9).count();
        assert!(held_back > 49, "every request due during the stall waits: {held_back}");
    }
}
