//! Scheduling laboratory: the `arp-par` OpenMP-style runtime and its
//! deterministic simulator, side by side.
//!
//! Demonstrates (1) real parallel loops under static/dynamic/guided
//! schedules, (2) task scopes, and (3) the replay scheduler the pipeline
//! uses to project measured node durations onto other thread counts.
//!
//! ```text
//! cargo run --release --example scheduling_lab
//! ```

use arp_par::{dag_makespan, tasks_makespan, Schedule, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn busy_work(units: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..units * 20_000 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

fn main() {
    let pool = ThreadPool::new(4);
    println!("pool with {} worker threads\n", pool.threads());

    // 1. Real parallel loops: skewed work under each schedule.
    println!("-- real parallel_for over 64 skewed units --");
    for schedule in [Schedule::Static, Schedule::Dynamic(1), Schedule::Guided(1)] {
        let sink = AtomicU64::new(0);
        let t0 = Instant::now();
        pool.parallel_for(0..64, schedule, |i| {
            // Unit 0 is 30x heavier than the rest (skew favors dynamic).
            let units = if i == 0 { 30 } else { 1 };
            sink.fetch_add(busy_work(units), Ordering::Relaxed);
        });
        println!("{schedule:?}: {:?}", t0.elapsed());
    }

    // 2. Task scope: the paper's Stage XI (three heterogeneous plot tasks).
    println!("\n-- task scope (3 heterogeneous tasks) --");
    let mut results = [0u64; 3];
    {
        let [a, b, c] = &mut results;
        pool.scope(|s| {
            s.spawn(|| *a = busy_work(10));
            s.spawn(|| *b = busy_work(20));
            s.spawn(|| *c = busy_work(5));
        });
    }
    println!("all tasks completed: checksums {results:?}");

    // 3. The replay scheduler: a fork-join graph (one root, 63 branches of
    //    which one is a 30x straggler, one join) on 1..16 processors.
    println!("\n-- projected makespans (fork of 63 branches, one 30x straggler) --");
    let mut durations = vec![Duration::from_millis(5)];
    durations.extend((0..63).map(|i| Duration::from_millis(if i == 0 { 300 } else { 10 })));
    durations.push(Duration::from_millis(5));
    let mut preds: Vec<Vec<usize>> = vec![Vec::new()];
    preds.extend((0..63).map(|_| vec![0]));
    preds.push((1..64).collect());
    println!("{:<10} {:>9}", "threads", "makespan");
    for threads in [1usize, 2, 4, 8, 16] {
        let m = dag_makespan(&durations, &preds, threads);
        println!("{threads:<10} {:>8.0}ms", m.as_secs_f64() * 1e3);
    }

    // 4. Task list-scheduling, as used for the metadata stages.
    let task_durs = [
        Duration::from_millis(9),
        Duration::from_millis(4),
        Duration::from_millis(4),
        Duration::from_millis(2),
    ];
    println!(
        "\n4 tasks (9/4/4/2 ms) on 2 virtual threads: makespan {:?} (greedy list schedule)",
        tasks_makespan(&task_durs, 2)
    );
}
