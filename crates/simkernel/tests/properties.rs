//! Property-based tests for the simulation kernel invariants.

use ivdss_simkernel::events::{Engine, EventQueue};
use ivdss_simkernel::facility::{Calendar, Facility, ServiceWindow};
use ivdss_simkernel::rng::{ErlangStream, ExponentialStream, SeedFactory, Stream};
use ivdss_simkernel::stats::{OnlineStats, SampleSet};
use ivdss_simkernel::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn finite_time() -> impl Strategy<Value = f64> {
    -1.0e6..1.0e6f64
}

/// Reference reservation calendar: a linear-scan probe over every
/// booking and a coalesce that walks from the insertion point to the end.
/// [`Calendar`] must agree with it bit for bit.
#[derive(Default)]
struct ScanCalendar {
    bookings: Vec<(SimTime, SimTime)>,
    busy_time: SimDuration,
}

impl ScanCalendar {
    fn probe(&self, arrival: SimTime, service: SimDuration) -> ServiceWindow {
        let mut cursor = arrival;
        for &(start, end) in &self.bookings {
            if end <= cursor {
                continue;
            }
            if start >= cursor + service {
                break;
            }
            cursor = cursor.max(end);
        }
        ServiceWindow {
            start: cursor,
            finish: cursor + service,
        }
    }

    fn book(&mut self, arrival: SimTime, service: SimDuration) -> ServiceWindow {
        let window = self.probe(arrival, service);
        if service.value() > 0.0 {
            let idx = self
                .bookings
                .partition_point(|&(start, _)| start < window.start);
            self.bookings.insert(idx, (window.start, window.finish));
            let mut i = idx.saturating_sub(1);
            while i + 1 < self.bookings.len() {
                if self.bookings[i].1 >= self.bookings[i + 1].0 {
                    self.bookings[i].1 = self.bookings[i].1.max(self.bookings[i + 1].1);
                    self.bookings.remove(i + 1);
                } else {
                    i += 1;
                }
            }
        }
        self.busy_time += service;
        window
    }

    fn horizon(&self) -> SimTime {
        self.bookings.last().map_or(SimTime::ZERO, |&(_, end)| end)
    }
}

/// The window at fraction `x` through `windows` (which must be non-empty).
fn pick(windows: &[ServiceWindow], x: f64) -> ServiceWindow {
    windows[((x * windows.len() as f64) as usize).min(windows.len() - 1)]
}

proptest! {
    /// Popping an event queue always yields a non-decreasing time sequence,
    /// regardless of insertion order.
    #[test]
    fn event_queue_pops_in_time_order(times in prop::collection::vec(finite_time(), 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::new(t), i);
        }
        let mut last = f64::NEG_INFINITY;
        while let Some(s) = q.pop() {
            prop_assert!(s.time().value() >= last);
            last = s.time().value();
        }
    }

    /// Events at the same time fire in insertion (FIFO) order.
    #[test]
    fn event_queue_is_fifo_at_equal_times(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::new(1.0), i);
        }
        for expect in 0..n {
            let got = q.pop().map(|s| s.into_parts().1);
            prop_assert_eq!(got, Some(expect));
        }
    }

    /// The engine clock is monotone non-decreasing over a whole run.
    #[test]
    fn engine_clock_is_monotone(delays in prop::collection::vec(0.0..100.0f64, 1..100)) {
        let mut engine = Engine::new();
        engine.schedule(SimTime::ZERO, 0usize);
        let mut last = SimTime::ZERO;
        let mut fired = 0usize;
        engine.run(|eng, idx: usize| {
            assert!(eng.now() >= last);
            last = eng.now();
            fired += 1;
            if idx < delays.len() {
                eng.schedule_in(SimDuration::new(delays[idx]), idx + 1);
            }
        });
        prop_assert_eq!(fired, delays.len() + 1);
    }

    /// Exponential samples are always non-negative and finite.
    #[test]
    fn exponential_samples_valid(mean in 0.001..1000.0f64, seed in any::<u64>()) {
        let mut s = ExponentialStream::new(mean, seed);
        for _ in 0..64 {
            let x = s.next_sample();
            prop_assert!(x.is_finite());
            prop_assert!(x >= 0.0);
        }
    }

    /// Erlang samples are always non-negative and finite.
    #[test]
    fn erlang_samples_valid(k in 1u32..8, mean in 0.001..100.0f64, seed in any::<u64>()) {
        let mut s = ErlangStream::new(k, mean, seed);
        for _ in 0..32 {
            let x = s.next_sample();
            prop_assert!(x.is_finite());
            prop_assert!(x >= 0.0);
        }
    }

    /// FIFO facility: start times and finish times are non-decreasing in
    /// submission order, and no job starts before its arrival.
    #[test]
    fn facility_is_fifo(
        jobs in prop::collection::vec((0.0..1000.0f64, 0.0..50.0f64), 1..100)
    ) {
        let mut jobs = jobs;
        jobs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut f = Facility::new();
        let mut last_finish = SimTime::ZERO;
        for &(arrival, service) in &jobs {
            let w = f.submit(SimTime::new(arrival), SimDuration::new(service));
            prop_assert!(w.start >= SimTime::new(arrival));
            prop_assert!(w.start >= last_finish.min(w.start));
            prop_assert!(w.finish >= last_finish);
            prop_assert!(w.finish.value() >= w.start.value());
            last_finish = w.finish;
        }
        prop_assert_eq!(f.jobs_served(), jobs.len() as u64);
    }

    /// Welford merge is equivalent to sequential recording at any split.
    #[test]
    fn stats_merge_any_split(
        data in prop::collection::vec(-1.0e3..1.0e3f64, 2..200),
        split_frac in 0.0..1.0f64
    ) {
        let split = ((data.len() as f64) * split_frac) as usize;
        let mut whole = OnlineStats::new();
        for &x in &data { whole.record(x); }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..split] { a.record(x); }
        for &x in &data[split..] { b.record(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-4);
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone(data in prop::collection::vec(-100.0..100.0f64, 1..200)) {
        let mut s = SampleSet::new();
        for &x in &data { s.record(x); }
        let q25 = s.quantile(0.25).unwrap();
        let q50 = s.quantile(0.5).unwrap();
        let q75 = s.quantile(0.75).unwrap();
        let lo = s.quantile(0.0).unwrap();
        let hi = s.quantile(1.0).unwrap();
        prop_assert!(lo <= q25 && q25 <= q50 && q50 <= q75 && q75 <= hi);
    }

    /// Seed factory: same (root, name) ⇒ same seed; this is what makes the
    /// common-random-number comparisons in the experiments reproducible.
    #[test]
    fn seed_factory_deterministic(root in any::<u64>(), name in "[a-z]{1,12}") {
        let a = SeedFactory::new(root).seed_for(&name);
        let b = SeedFactory::new(root).seed_for(&name);
        prop_assert_eq!(a, b);
    }

    /// The calendar's binary-searched probe and neighbour-only coalesce
    /// agree bit for bit with a linear-scan reference over random booking
    /// sequences: zero-length jobs, windows touching exactly at a
    /// boundary, exact-fit and partial backfills into gaps, and
    /// reservations far in the future (including one so far out that a
    /// short job's finish rounds onto its start).
    #[test]
    fn calendar_matches_linear_scan_reference(
        steps in prop::collection::vec(
            ((0u8..7, 0.0..1.0f64, 0.0..1.0f64), (0.0..1.0f64, 0.0..1.0f64)),
            1..150
        )
    ) {
        let mut fast = Calendar::new();
        let mut reference = ScanCalendar::default();
        let mut windows: Vec<ServiceWindow> = Vec::new();
        for ((kind, a, b), (c, d)) in steps {
            // Integral times make exact touches between windows common.
            let grid = |x: f64, scale: f64| (x * scale).floor();
            let (arrival, service) = match kind {
                0 => (grid(a, 100.0), grid(b, 10.0)),
                1 => (grid(a, 100.0), 0.0),
                // Arrive exactly at an earlier window's finish.
                2 if !windows.is_empty() => (pick(&windows, a).finish.value(), grid(b, 10.0)),
                // Exact-fit backfill: the span between two earlier windows.
                3 if !windows.is_empty() => {
                    let (x, y) = (pick(&windows, a), pick(&windows, b));
                    (x.finish.value(), (y.start - x.finish).value().max(0.0))
                }
                4 => (1.0e6 + a * 1.0e9, b * 50.0),
                5 => (1.0e16 + grid(a, 4.0) * 8.0, b * 0.5),
                // Backfill anywhere before the horizon (and kinds 2 and 3
                // before any window exists).
                _ => (a * reference.horizon().value(), b * 5.0),
            };
            let (arrival, service) = (SimTime::new(arrival), SimDuration::new(service));
            let w = fast.book(arrival, service);
            prop_assert_eq!(w, reference.book(arrival, service));
            windows.push(w);

            prop_assert_eq!(fast.horizon(), reference.horizon());
            prop_assert_eq!(fast.total_busy_time(), reference.busy_time);
            let probes = [
                c * 150.0,
                c * reference.horizon().value(),
                pick(&windows, c).start.value(),
                pick(&windows, d).finish.value(),
            ];
            for probe_at in probes {
                let (at, len) = (SimTime::new(probe_at), SimDuration::new(grid(d, 20.0)));
                prop_assert_eq!(fast.probe(at, len), reference.probe(at, len));
            }
        }
    }

    /// Pruning is invisible to a caller whose clock only moves forward: a
    /// calendar pruned at every clock step hands out exactly the windows,
    /// horizon and counters of an unpruned one for bookings and probes at
    /// or after the clock. The clock often lands exactly on an earlier
    /// window's finish, where a new booking merges with the window that
    /// ends there and a zero-length probe sees the merged interval.
    #[test]
    fn pruned_calendar_matches_unpruned(
        steps in prop::collection::vec(
            ((0u8..5, 0.0..1.0f64), (0u8..3, 0.0..1.0f64, 0.0..1.0f64), 0.0..1.0f64),
            1..150
        )
    ) {
        let grid = |x: f64, scale: f64| (x * scale).floor();
        let mut pruned = Calendar::new();
        let mut full = Calendar::new();
        let mut windows: Vec<ServiceWindow> = Vec::new();
        let mut now = SimTime::ZERO;
        for ((clock_kind, a), (book_kind, b, c), d) in steps {
            now = match clock_kind {
                0 => now,
                1 | 2 if !windows.is_empty() => now.max(pick(&windows, a).finish),
                3 if !windows.is_empty() => now.max(pick(&windows, a).start),
                _ => now + SimDuration::new(grid(a, 8.0)),
            };
            pruned.prune_before(now);
            let arrival = match book_kind {
                // A delayed plan reserving a future window.
                0 => now + SimDuration::new(grid(b, 30.0)),
                _ => now,
            };
            let (arrival, service) = (arrival, SimDuration::new(grid(c, 6.0)));
            let w = pruned.book(arrival, service);
            prop_assert_eq!(w, full.book(arrival, service));
            windows.push(w);

            prop_assert_eq!(pruned.horizon(), full.horizon());
            prop_assert_eq!(pruned.jobs_booked(), full.jobs_booked());
            prop_assert_eq!(pruned.total_busy_time(), full.total_busy_time());
            let probes = [now, now + SimDuration::new(grid(d, 40.0)), now.max(pick(&windows, d).finish)];
            for at in probes {
                for len in [SimDuration::ZERO, SimDuration::new(grid(d, 5.0) + 1.0)] {
                    prop_assert_eq!(pruned.probe(at, len), full.probe(at, len));
                }
            }
        }
    }
}
