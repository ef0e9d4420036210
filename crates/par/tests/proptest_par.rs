//! Property tests: the parallel runtime matches sequential semantics for
//! arbitrary workloads, and the scheduling simulator respects its bounds.

use arp_par::{tasks_makespan, PoolStatsSnapshot, Schedule, ThreadPool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

fn snapshot_strategy() -> impl Strategy<Value = PoolStatsSnapshot> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((a, b, c, d), (e, f, g), (h, i, j), (k, l, m, o))| PoolStatsSnapshot {
                jobs_on_workers: a,
                jobs_helped: b,
                loops_completed: c,
                panics_caught: d,
                dag_dispatches: e,
                dag_ready_peak: f,
                dags_completed: g,
                io_dispatches: h,
                io_jobs_on_workers: i,
                io_ready_peak: j,
                steal_attempts: k,
                steals_compute: l,
                steals_io: m,
                cross_lane_steals: o,
            },
        )
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::Static),
        (1usize..16).prop_map(Schedule::Dynamic),
        (1usize..8).prop_map(Schedule::Guided),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_for_is_a_permutation_of_sequential(
        n in 0usize..500,
        threads in 1usize..6,
        schedule in schedule_strategy(),
    ) {
        let pool = ThreadPool::new(threads);
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let sum = AtomicU64::new(0);
        pool.parallel_for(0..n, schedule, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1, "index {}", i);
        }
        prop_assert_eq!(sum.load(Ordering::Relaxed), (0..n as u64).sum::<u64>());
    }

    #[test]
    fn scope_runs_every_task_once(
        task_count in 0usize..40,
        threads in 1usize..6,
    ) {
        let pool = ThreadPool::new(threads);
        let counts: Vec<AtomicUsize> = (0..task_count).map(|_| AtomicUsize::new(0)).collect();
        pool.scope(|s| {
            for c in &counts {
                s.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        for c in &counts {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn task_makespan_bounds(
        durs_ms in prop::collection::vec(0u64..100, 0..40),
        threads in 1usize..8,
    ) {
        let durs: Vec<Duration> = durs_ms.iter().map(|&m| Duration::from_millis(m)).collect();
        let sum: Duration = durs.iter().sum();
        let max = durs.iter().copied().max().unwrap_or_default();
        let m = tasks_makespan(&durs, threads);
        prop_assert!(m <= sum);
        prop_assert!(m >= max);
        // Greedy list scheduling is within 2x of any schedule's optimum
        // (Graham's bound: makespan <= sum/p + max).
        let graham = Duration::from_nanos(
            (sum.as_nanos() / threads as u128) as u64
        ) + max;
        prop_assert!(m <= graham + Duration::from_nanos(1));
    }

    #[test]
    fn delta_since_saturates_and_never_panics(
        after in snapshot_strategy(),
        before in snapshot_strategy(),
    ) {
        // `delta_since` must be total: any pair of snapshots — including
        // ones where `before` is ahead, as happens when snapshots from
        // different pools are mixed up — yields a delta without wrapping.
        let d = after.delta_since(&before);
        prop_assert_eq!(d.jobs_on_workers, after.jobs_on_workers.saturating_sub(before.jobs_on_workers));
        prop_assert_eq!(d.jobs_helped, after.jobs_helped.saturating_sub(before.jobs_helped));
        prop_assert_eq!(d.loops_completed, after.loops_completed.saturating_sub(before.loops_completed));
        prop_assert_eq!(d.panics_caught, after.panics_caught.saturating_sub(before.panics_caught));
        prop_assert_eq!(d.dag_dispatches, after.dag_dispatches.saturating_sub(before.dag_dispatches));
        prop_assert_eq!(d.dags_completed, after.dags_completed.saturating_sub(before.dags_completed));
        prop_assert_eq!(d.io_dispatches, after.io_dispatches.saturating_sub(before.io_dispatches));
        prop_assert_eq!(
            d.io_jobs_on_workers,
            after.io_jobs_on_workers.saturating_sub(before.io_jobs_on_workers)
        );
        prop_assert_eq!(d.steal_attempts, after.steal_attempts.saturating_sub(before.steal_attempts));
        prop_assert_eq!(d.steals_compute, after.steals_compute.saturating_sub(before.steals_compute));
        prop_assert_eq!(d.steals_io, after.steals_io.saturating_sub(before.steals_io));
        prop_assert_eq!(
            d.cross_lane_steals,
            after.cross_lane_steals.saturating_sub(before.cross_lane_steals)
        );
        // The ready-queue peaks are high-water marks, not counters: the
        // later observation is kept verbatim.
        prop_assert_eq!(d.dag_ready_peak, after.dag_ready_peak);
        prop_assert_eq!(d.io_ready_peak, after.io_ready_peak);
    }

    #[test]
    fn delta_since_identities(s in snapshot_strategy()) {
        // Delta against itself is all-zero except the preserved peak...
        let zero = s.delta_since(&s);
        prop_assert_eq!(zero.jobs_on_workers, 0);
        prop_assert_eq!(zero.jobs_helped, 0);
        prop_assert_eq!(zero.loops_completed, 0);
        prop_assert_eq!(zero.panics_caught, 0);
        prop_assert_eq!(zero.dag_dispatches, 0);
        prop_assert_eq!(zero.dags_completed, 0);
        prop_assert_eq!(zero.dag_ready_peak, s.dag_ready_peak);
        // ...and delta against a fresh (all-zero) baseline is the snapshot.
        let fresh = PoolStatsSnapshot {
            jobs_on_workers: 0,
            jobs_helped: 0,
            loops_completed: 0,
            panics_caught: 0,
            dag_dispatches: 0,
            dag_ready_peak: 0,
            dags_completed: 0,
            io_dispatches: 0,
            io_jobs_on_workers: 0,
            io_ready_peak: 0,
            steal_attempts: 0,
            steals_compute: 0,
            steals_io: 0,
            cross_lane_steals: 0,
        };
        prop_assert_eq!(s.delta_since(&fresh), s);
    }
}

/// Every `PoolStats` field is a monotone counter (or high-water mark): a
/// sequence of snapshots taken while another thread hammers the pool must
/// never observe any field decreasing.
#[test]
fn snapshots_are_monotone_under_concurrent_load() {
    let pool = ThreadPool::new(4);
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..40 {
                pool.parallel_for(0..64, Schedule::Dynamic(4), |_| {
                    std::hint::black_box(round);
                });
                // A tiny diamond DAG so the dag_* counters move too.
                let ran: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
                let tasks: Vec<Box<dyn FnOnce() + Send>> = ran
                    .iter()
                    .map(|c| {
                        Box::new(move || {
                            c.fetch_add(1, Ordering::Relaxed);
                        }) as Box<dyn FnOnce() + Send>
                    })
                    .collect();
                pool.run_dag(tasks, &[vec![], vec![0], vec![0], vec![1, 2]]);
            }
            done.store(true, Ordering::Release);
        });

        let mut prev = pool.stats();
        while !done.load(Ordering::Acquire) {
            let cur = pool.stats();
            assert!(cur.jobs_on_workers >= prev.jobs_on_workers);
            assert!(cur.jobs_helped >= prev.jobs_helped);
            assert!(cur.loops_completed >= prev.loops_completed);
            assert!(cur.panics_caught >= prev.panics_caught);
            assert!(cur.dag_dispatches >= prev.dag_dispatches);
            assert!(cur.dag_ready_peak >= prev.dag_ready_peak);
            assert!(cur.dags_completed >= prev.dags_completed);
            // The delta against the previous poll is therefore exact, and
            // saturating subtraction never actually saturates.
            let d = cur.delta_since(&prev);
            assert_eq!(
                d.jobs_on_workers,
                cur.jobs_on_workers - prev.jobs_on_workers
            );
            assert_eq!(d.dag_dispatches, cur.dag_dispatches - prev.dag_dispatches);
            prev = cur;
            std::thread::yield_now();
        }
    });
    let end = pool.stats();
    assert!(end.loops_completed >= 40);
    assert!(end.dags_completed >= 40);
    assert_eq!(end.panics_caught, 0);
}
