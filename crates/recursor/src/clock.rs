//! The recursor's notion of time.
//!
//! Cache expiry needs a monotonic timeline that jumps at day boundaries,
//! while the netsim keeps a per-socket virtual clock that only counts the
//! socket's own work. [`Clock`] bridges the two: within a day, now is `day
//! start + socket time spent since the day began`. [`Clock::begin_day`]
//! jumps to a study day's start, so a 300 s TTL survives a same-day sweep
//! but is long expired by the next daily snapshot.

use dps_netsim::Day;

/// Virtual microseconds in one study day.
const DAY_US: u64 = 86_400_000_000;

/// A monotonic virtual clock in microseconds, driven by one socket.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clock {
    now_us: u64,
    day_start_us: u64,
    /// Socket time when the current day began.
    socket_anchor_us: u64,
}

impl Clock {
    /// A clock at the start of study day 0, anchored at socket time
    /// `socket_now_us`.
    pub(crate) fn new(socket_now_us: u64) -> Self {
        Self {
            now_us: 0,
            day_start_us: 0,
            socket_anchor_us: socket_now_us,
        }
    }

    /// Current virtual time.
    pub(crate) fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Jumps to the start of `day`, with the socket at `socket_now_us`.
    /// A day that does not start after the current day is a no-op.
    pub(crate) fn begin_day(&mut self, day: Day, socket_now_us: u64) {
        let start = u64::from(day.0) * DAY_US;
        if start > self.day_start_us {
            self.day_start_us = start;
            self.socket_anchor_us = socket_now_us;
            self.now_us = self.now_us.max(start);
        }
    }

    /// Takes in the socket time spent up to `socket_now_us` and returns
    /// the new now. Never moves backwards.
    pub(crate) fn sync(&mut self, socket_now_us: u64) -> u64 {
        let projected = self.day_start_us + (socket_now_us - self.socket_anchor_us);
        self.now_us = self.now_us.max(projected);
        self.now_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn follows_socket_time_monotonically() {
        let mut c = Clock::new(0);
        assert_eq!(c.sync(100), 100);
        assert_eq!(c.sync(100), 100);
        assert_eq!(c.sync(107), 107);
    }

    #[test]
    fn day_jumps_are_idempotent() {
        let mut c = Clock::new(0);
        c.begin_day(Day(2), 0);
        assert_eq!(c.now_us(), 2 * DAY_US);
        c.sync(500);
        c.begin_day(Day(2), 500);
        assert_eq!(c.now_us(), 2 * DAY_US + 500);
        c.begin_day(Day(3), 500);
        assert_eq!(c.now_us(), 3 * DAY_US);
    }

    #[test]
    fn a_day_counts_only_socket_time_spent_since_it_began() {
        let mut c = Clock::new(40);
        assert_eq!(c.sync(1_040), 1_000);
        c.begin_day(Day(1), 5_000);
        assert_eq!(c.sync(5_250), DAY_US + 250);
        c.begin_day(Day(0), 9_000);
        assert_eq!(c.sync(9_000), DAY_US + 4_000, "a day never rewinds");
    }
}
