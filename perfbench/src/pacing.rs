//! The load generator: a reader that hands the server its input lines on a
//! schedule.
//!
//! Open loop: line `i` is due at `start + i / rate` and is released no
//! earlier than that, whether or not the server kept up. Latency is counted
//! from the due time, so a stall that delays later lines is charged to them
//! (no coordinated omission). Closed loop: the same reader, unpaced, hands
//! over everything as fast as the server reads it.
//!
//! The reader runs inside the server's own input thread (it is the `BufRead`
//! the dispatcher calls), so it adds no thread of its own.

use std::io::{self, BufRead, Read};
use std::time::{Duration, Instant};

/// When each input line is due.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    /// Nanoseconds between consecutive lines; `None` for the closed loop.
    interval_ns: Option<f64>,
}

impl Schedule {
    pub fn closed(start: Instant) -> Self {
        Schedule {
            start,
            interval_ns: None,
        }
    }

    /// An open loop offering `lines_per_s` lines per second.
    pub fn open(start: Instant, lines_per_s: f64) -> Self {
        Schedule {
            start,
            interval_ns: Some(1e9 / lines_per_s),
        }
    }

    pub fn is_paced(&self) -> bool {
        self.interval_ns.is_some()
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    /// Offset of line `index`'s due time from the start, in nanoseconds
    /// (zero for the closed loop).
    pub fn due_offset_ns(&self, index: u64) -> u64 {
        self.interval_ns
            .map_or(0, |interval| (index as f64 * interval) as u64)
    }

    /// The last line index due at `elapsed_ns` after the start.
    fn last_due(&self, elapsed_ns: u64) -> u64 {
        match self.interval_ns {
            Some(interval) => (elapsed_ns as f64 / interval) as u64,
            None => u64::MAX,
        }
    }
}

/// How far input consumption fell behind the schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lag {
    /// Largest delay of a line past its due time when it was released.
    pub max_ns: u64,
    /// The delay at the last release: near `max_ns` when a backlog was still
    /// growing at the end, near zero when the server kept up.
    pub last_ns: u64,
    pub releases: u64,
}

/// Paces `data` (newline-terminated lines) according to a [`Schedule`].
pub struct PacedReader<'a> {
    data: &'a [u8],
    schedule: Schedule,
    /// Read position.
    pos: usize,
    /// End of the released prefix.
    released: usize,
    /// Index of the first unreleased line.
    next_line: u64,
    lag: Lag,
}

/// Waits shorter than this are spun rather than slept, because a sleep
/// overshoots by tens of microseconds.
const SPIN_NS: u64 = 150_000;

impl<'a> PacedReader<'a> {
    pub fn new(data: &'a [u8], schedule: Schedule) -> Self {
        PacedReader {
            data,
            schedule,
            pos: 0,
            released: if schedule.is_paced() { 0 } else { data.len() },
            next_line: 0,
            lag: Lag::default(),
        }
    }

    pub fn lag(&self) -> Lag {
        self.lag
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.schedule.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Releases every line that is due, first waiting for the next line's
    /// due time if none is.
    fn release(&mut self) {
        let due = self.schedule.due_offset_ns(self.next_line);
        let mut now = self.elapsed_ns();
        while now < due {
            let wait = due - now;
            if wait > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(wait - SPIN_NS / 2));
            } else {
                std::hint::spin_loop();
            }
            now = self.elapsed_ns();
        }
        let late = now - due;
        self.lag.releases += 1;
        self.lag.last_ns = late;
        self.lag.max_ns = self.lag.max_ns.max(late);
        let last = self.schedule.last_due(now).max(self.next_line);
        while self.next_line <= last && self.released < self.data.len() {
            let rest = &self.data[self.released..];
            self.released += rest
                .iter()
                .position(|&byte| byte == b'\n')
                .map_or(rest.len(), |newline| newline + 1);
            self.next_line += 1;
        }
    }
}

impl Read for PacedReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PacedReader<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.released && self.released < self.data.len() {
            self.release();
        }
        Ok(&self.data[self.pos..self.released])
    }

    fn consume(&mut self, amount: usize) {
        self.pos = (self.pos + amount).min(self.released);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_lines_by_the_rate() {
        let schedule = Schedule::open(Instant::now(), 1000.0);
        assert_eq!(schedule.due_offset_ns(0), 0);
        assert_eq!(schedule.due_offset_ns(3), 3_000_000);
        assert_eq!(schedule.last_due(2_500_000), 2);
        let closed = Schedule::closed(Instant::now());
        assert_eq!(closed.due_offset_ns(1_000_000), 0);
        assert!(!closed.is_paced());
    }

    #[test]
    fn lines_are_never_released_before_they_are_due() {
        let data = b"a\nb\nc\nd\ne\n";
        let schedule = Schedule::open(Instant::now(), 500.0);
        let mut reader = PacedReader::new(data, schedule);
        let mut line = String::new();
        for index in 0..5u64 {
            line.clear();
            reader.read_line(&mut line).unwrap();
            let elapsed = schedule.start().elapsed().as_nanos() as u64;
            assert!(
                elapsed >= schedule.due_offset_ns(index),
                "line {index} early"
            );
            assert_eq!(line.len(), 2);
        }
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
        assert_eq!(reader.lag().releases, 5);
    }

    #[test]
    fn a_slow_consumer_shows_up_as_lag() {
        let data = b"a\nb\nc\n";
        let schedule = Schedule::open(Instant::now(), 1000.0);
        let mut reader = PacedReader::new(data, schedule);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        // Line 1 is due at 1 ms; consuming it at ~20 ms is ~19 ms late, and
        // line 2 is released in the same batch.
        std::thread::sleep(Duration::from_millis(20));
        line.clear();
        reader.read_line(&mut line).unwrap();
        let lag = reader.lag();
        assert!(lag.max_ns >= 18_000_000, "lag {lag:?}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "c\n");
        assert_eq!(reader.lag().releases, 2);
    }

    #[test]
    fn the_closed_loop_hands_over_everything_at_once() {
        let data = b"a\nb\n";
        let mut reader = PacedReader::new(data, Schedule::closed(Instant::now()));
        assert_eq!(reader.fill_buf().unwrap(), data);
        let mut all = String::new();
        reader.read_to_string(&mut all).unwrap();
        assert_eq!(all, "a\nb\n");
        assert_eq!(reader.lag().releases, 0);
    }
}
