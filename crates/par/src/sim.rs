//! Deterministic scheduling simulator.
//!
//! Computes the makespan a set of measured work-unit durations *would* have
//! on `P` processors. The pipeline replays the per-node durations of a
//! measured run through these functions to decompose its speedup (barrier
//! vs DAG, per-event vs super-DAG, lane on vs off) and to project it to
//! thread counts the host does not have; such output is a projection, not
//! a measurement.

use std::time::Duration;

/// Greedy list-scheduling of heterogeneous tasks on `threads` processors
/// (OpenMP task pool): each task goes to the earliest-available thread.
pub fn tasks_makespan(durations: &[Duration], threads: usize) -> Duration {
    let threads = threads.max(1);
    let mut avail = vec![Duration::ZERO; threads];
    for &d in durations {
        let slot = avail.iter_mut().min().expect("threads >= 1");
        *slot += d;
    }
    avail.into_iter().max().unwrap_or(Duration::ZERO)
}

/// Critical-path-priority list scheduling of a task DAG on `threads`
/// processors.
///
/// Replays in virtual time the schedule [`crate::ThreadPool::run_dag`]
/// would produce: a node becomes ready when its last predecessor finishes;
/// among ready nodes the one with the longest remaining path to an exit
/// runs first, on the thread that frees up earliest. Returns the virtual
/// wall time of the whole graph.
///
/// `preds[i]` lists the nodes that must finish before node `i` starts.
/// Panics on out-of-range indices, self-dependencies, or cycles.
///
/// ```
/// use std::time::Duration;
/// let ms = Duration::from_millis;
/// // Diamond 0 -> {1, 2} -> 3: the branches overlap on two threads.
/// let durations = [ms(2), ms(4), ms(6), ms(1)];
/// let preds = vec![vec![], vec![0], vec![0], vec![1, 2]];
/// assert_eq!(arp_par::dag_makespan(&durations, &preds, 2), ms(9));
/// assert_eq!(arp_par::dag_makespan(&durations, &preds, 1), ms(13));
/// ```
pub fn dag_makespan(durations: &[Duration], preds: &[Vec<usize>], threads: usize) -> Duration {
    let n = durations.len();
    assert_eq!(
        preds.len(),
        n,
        "dag_makespan: one predecessor list per node"
    );
    if n == 0 {
        return Duration::ZERO;
    }
    let threads = threads.max(1);
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ps) in preds.iter().enumerate() {
        for &p in ps {
            assert!(p < n && p != i, "dag_makespan: bad predecessor {p} of {i}");
            succs[p].push(i);
        }
    }

    // Topological order (Kahn), needed to compute ranks and detect cycles.
    let mut remaining: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut topo: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
    let mut head = 0;
    while head < topo.len() {
        let i = topo[head];
        head += 1;
        for &s in &succs[i] {
            remaining[s] -= 1;
            if remaining[s] == 0 {
                topo.push(s);
            }
        }
    }
    assert_eq!(
        topo.len(),
        n,
        "dag_makespan: dependency graph contains a cycle"
    );

    // Downward rank: longest path from the node (inclusive) to any exit.
    let mut rank = vec![Duration::ZERO; n];
    for &i in topo.iter().rev() {
        let down = succs[i]
            .iter()
            .map(|&s| rank[s])
            .max()
            .unwrap_or(Duration::ZERO);
        rank[i] = durations[i] + down;
    }

    // List scheduling: repeatedly take the highest-rank node whose
    // predecessors are all scheduled, and place it on the earliest-free
    // thread, no earlier than its predecessors' finish times.
    let mut finish = vec![Duration::ZERO; n];
    let mut scheduled = vec![false; n];
    let mut pending: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut avail = vec![Duration::ZERO; threads];
    let mut ready: Vec<usize> = (0..n).filter(|&i| pending[i] == 0).collect();
    let mut makespan = Duration::ZERO;
    while let Some(pos) = ready
        .iter()
        .enumerate()
        .max_by_key(|&(_, &i)| (rank[i], std::cmp::Reverse(i)))
        .map(|(pos, _)| pos)
    {
        let i = ready.swap_remove(pos);
        let node_ready = preds[i]
            .iter()
            .map(|&p| finish[p])
            .max()
            .unwrap_or(Duration::ZERO);
        let t = avail.iter_mut().min().expect("threads >= 1");
        let start = (*t).max(node_ready);
        finish[i] = start + durations[i];
        *t = finish[i];
        makespan = makespan.max(finish[i]);
        scheduled[i] = true;
        for &s in &succs[i] {
            pending[s] -= 1;
            if pending[s] == 0 {
                ready.push(s);
            }
        }
    }
    debug_assert!(scheduled.iter().all(|&s| s));
    makespan
}

/// As [`dag_makespan`], with the pool's two-lane work-stealing topology:
/// the virtual machine has `threads` compute workers *and* `io_threads`
/// I/O workers, and — mirroring the stealing scheduler of
/// [`crate::ThreadPool::run_dag_lanes`] — **any** worker may run **any**
/// node. The `io_lane` hint is an affinity, not a partition: a node goes
/// to the worker that frees up earliest, and only when workers tie does
/// the node prefer its own lane. An idle I/O worker therefore steals
/// compute nodes and vice versa, so the lane-on schedule is effectively
/// `threads + io_threads` workers with placement bias and can never be
/// starved the way a strict two-queue split is.
///
/// `io_threads == 0` or an empty `io_lane` slice degenerates to the
/// single-lane [`dag_makespan`] (the lane-off schedule); otherwise
/// `io_lane` must have one entry per node. All-`false` hints with a live
/// lane equal `dag_makespan(durations, preds, threads + io_threads)` —
/// the extra workers simply steal.
///
/// ```
/// use std::time::Duration;
/// let ms = Duration::from_millis;
/// // Two independent pairs of (compute, I/O) work on one compute thread:
/// // single-lane they serialize to 20ms. With a 1-thread I/O lane the
/// // idle I/O worker *steals* the second chain's compute root, so both
/// // chains run concurrently: compute 0..5ms, I/O 5..10ms.
/// let durations = [ms(5), ms(5), ms(5), ms(5)];
/// let preds = vec![vec![], vec![0], vec![], vec![2]];
/// let io_lane = [false, true, false, true];
/// assert_eq!(arp_par::dag_makespan(&durations, &preds, 1), ms(20));
/// assert_eq!(
///     arp_par::dag_makespan_lanes(&durations, &preds, 1, 1, &io_lane),
///     ms(10)
/// );
/// ```
pub fn dag_makespan_lanes(
    durations: &[Duration],
    preds: &[Vec<usize>],
    threads: usize,
    io_threads: usize,
    io_lane: &[bool],
) -> Duration {
    if io_threads == 0 || io_lane.is_empty() {
        return dag_makespan(durations, preds, threads);
    }
    let n = durations.len();
    assert_eq!(
        preds.len(),
        n,
        "dag_makespan_lanes: one predecessor list per node"
    );
    assert_eq!(
        io_lane.len(),
        n,
        "dag_makespan_lanes: one lane hint per node"
    );
    if n == 0 {
        return Duration::ZERO;
    }
    let threads = threads.max(1);
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ps) in preds.iter().enumerate() {
        for &p in ps {
            assert!(
                p < n && p != i,
                "dag_makespan_lanes: bad predecessor {p} of {i}"
            );
            succs[p].push(i);
        }
    }

    // Topological order (Kahn), needed to compute ranks and detect cycles.
    let mut remaining: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut topo: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
    let mut head = 0;
    while head < topo.len() {
        let i = topo[head];
        head += 1;
        for &s in &succs[i] {
            remaining[s] -= 1;
            if remaining[s] == 0 {
                topo.push(s);
            }
        }
    }
    assert_eq!(
        topo.len(),
        n,
        "dag_makespan_lanes: dependency graph contains a cycle"
    );

    // Downward rank: longest path from the node (inclusive) to any exit.
    let mut rank = vec![Duration::ZERO; n];
    for &i in topo.iter().rev() {
        let down = succs[i]
            .iter()
            .map(|&s| rank[s])
            .max()
            .unwrap_or(Duration::ZERO);
        rank[i] = durations[i] + down;
    }

    // List scheduling as in `dag_makespan`, except over the union of both
    // lanes' workers (indices `0..threads` are compute, the rest I/O):
    // work stealing makes every worker a candidate for every node, and
    // the lane hint only breaks availability ties in favor of the node's
    // affine lane — the victim-order bias of the real scheduler.
    let mut finish = vec![Duration::ZERO; n];
    let mut pending: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut avail = vec![Duration::ZERO; threads + io_threads];
    let mut ready: Vec<usize> = (0..n).filter(|&i| pending[i] == 0).collect();
    let mut makespan = Duration::ZERO;
    while let Some(pos) = ready
        .iter()
        .enumerate()
        .max_by_key(|&(_, &i)| (rank[i], std::cmp::Reverse(i)))
        .map(|(pos, _)| pos)
    {
        let i = ready.swap_remove(pos);
        let node_ready = preds[i]
            .iter()
            .map(|&p| finish[p])
            .max()
            .unwrap_or(Duration::ZERO);
        let (w, _) = avail
            .iter()
            .enumerate()
            .min_by_key(|&(w, &t)| (t, (w >= threads) != io_lane[i], w))
            .expect("at least one worker");
        let start = avail[w].max(node_ready);
        finish[i] = start + durations[i];
        avail[w] = finish[i];
        makespan = makespan.max(finish[i]);
        for &s in &succs[i] {
            pending[s] -= 1;
            if pending[s] == 0 {
                ready.push(s);
            }
        }
    }
    makespan
}

/// As [`super_dag_makespan`], with the two-lane work-stealing topology of
/// [`dag_makespan_lanes`]: `io_lane[g]` tags graph `g`'s nodes (one entry
/// per node, or an empty table to disable the lane). The union is
/// flattened with per-graph offsets exactly as in [`super_dag_makespan`].
pub fn super_dag_makespan_lanes(
    durations: &[Vec<Duration>],
    preds: &[Vec<Vec<usize>>],
    threads: usize,
    io_threads: usize,
    io_lane: &[Vec<bool>],
) -> Duration {
    assert_eq!(
        durations.len(),
        preds.len(),
        "super_dag_makespan_lanes: one predecessor table per graph"
    );
    assert!(
        io_lane.is_empty() || io_lane.len() == durations.len(),
        "super_dag_makespan_lanes: one lane table per graph (or none)"
    );
    let mut flat_durations = Vec::new();
    let mut flat_preds = Vec::new();
    let mut flat_lanes = Vec::new();
    for (g, (ds, ps)) in durations.iter().zip(preds).enumerate() {
        assert_eq!(
            ds.len(),
            ps.len(),
            "super_dag_makespan_lanes: one predecessor list per node"
        );
        let offset = flat_durations.len();
        flat_durations.extend_from_slice(ds);
        flat_preds.extend(
            ps.iter()
                .map(|nodes| nodes.iter().map(|&p| p + offset).collect::<Vec<_>>()),
        );
        if let Some(lanes) = io_lane.get(g) {
            assert_eq!(
                lanes.len(),
                ds.len(),
                "super_dag_makespan_lanes: one lane hint per node"
            );
            flat_lanes.extend_from_slice(lanes);
        }
    }
    if io_lane.is_empty() {
        flat_lanes.clear();
    }
    dag_makespan_lanes(
        &flat_durations,
        &flat_preds,
        threads,
        io_threads,
        &flat_lanes,
    )
}

/// Predicted makespan of a *super-graph*: the disjoint union of several
/// independent task DAGs scheduled together on one `threads`-processor
/// pool.
///
/// `durations[g]` and `preds[g]` describe graph `g` exactly as in
/// [`dag_makespan`] (predecessor indices are local to the graph); no edges
/// are added between graphs. The union is flattened with per-graph index
/// offsets and scheduled as one critical-path-priority list schedule, which
/// is how the batch executor submits a multi-event super-DAG to
/// [`crate::ThreadPool::run_dag`]. Scheduling the union can never be slower
/// than running the graphs back to back, and is strictly faster whenever
/// one graph's idle tail can absorb another graph's nodes.
///
/// ```
/// use std::time::Duration;
/// let ms = Duration::from_millis;
/// // Two independent 2-node chains on 2 threads: run back to back they
/// // cost 5ms + 5ms; scheduled as one union the chains overlap fully.
/// let durations = vec![vec![ms(3), ms(2)], vec![ms(4), ms(1)]];
/// let preds = vec![vec![vec![], vec![0]], vec![vec![], vec![0]]];
/// assert_eq!(arp_par::super_dag_makespan(&durations, &preds, 2), ms(5));
/// assert_eq!(arp_par::super_dag_makespan(&durations, &preds, 1), ms(10));
/// ```
pub fn super_dag_makespan(
    durations: &[Vec<Duration>],
    preds: &[Vec<Vec<usize>>],
    threads: usize,
) -> Duration {
    assert_eq!(
        durations.len(),
        preds.len(),
        "super_dag_makespan: one predecessor table per graph"
    );
    let mut flat_durations = Vec::new();
    let mut flat_preds = Vec::new();
    for (ds, ps) in durations.iter().zip(preds) {
        assert_eq!(
            ds.len(),
            ps.len(),
            "super_dag_makespan: one predecessor list per node"
        );
        let offset = flat_durations.len();
        flat_durations.extend_from_slice(ds);
        flat_preds.extend(
            ps.iter()
                .map(|nodes| nodes.iter().map(|&p| p + offset).collect::<Vec<_>>()),
        );
    }
    dag_makespan(&flat_durations, &flat_preds, threads)
}

/// Scales selected node durations for a what-if replay: every node with
/// `select[g][i] == true` has its duration divided by `speedup`; all other
/// nodes keep their recorded time. An empty `select` table scales nothing.
///
/// This is the input half of the Coz-style virtual-speedup question "what
/// if kernel K were `speedup`× faster?": the caller marks K's nodes and
/// replays the schedule on the scaled durations.
pub fn scale_super_durations(
    durations: &[Vec<Duration>],
    select: &[Vec<bool>],
    speedup: f64,
) -> Vec<Vec<Duration>> {
    assert!(
        speedup > 0.0 && speedup.is_finite(),
        "scale_super_durations: speedup must be positive and finite"
    );
    assert!(
        select.is_empty() || select.len() == durations.len(),
        "scale_super_durations: one selection table per graph (or none)"
    );
    durations
        .iter()
        .enumerate()
        .map(|(g, ds)| {
            let Some(sel) = select.get(g) else {
                return ds.clone();
            };
            assert_eq!(
                sel.len(),
                ds.len(),
                "scale_super_durations: one selection flag per node"
            );
            ds.iter()
                .zip(sel)
                .map(|(&d, &hit)| if hit { d.div_f64(speedup) } else { d })
                .collect()
        })
        .collect()
}

/// What-if replay of a super-graph: the makespan [`super_dag_makespan`]
/// predicts once the selected nodes run `speedup`× faster.
///
/// Purely a composition of [`scale_super_durations`] and the deterministic
/// list-scheduling replay, so the prediction is *exactly* what rerunning
/// the simulator on pre-scaled inputs yields — the property the profile
/// validation test pins down.
///
/// ```
/// use std::time::Duration;
/// let ms = Duration::from_millis;
/// // One two-node chain; halving the first node saves exactly 2ms.
/// let durations = vec![vec![ms(4), ms(3)]];
/// let preds = vec![vec![vec![], vec![0]]];
/// let select = vec![vec![true, false]];
/// assert_eq!(
///     arp_par::super_dag_makespan_scaled(&durations, &preds, 2, &select, 2.0),
///     ms(5)
/// );
/// ```
pub fn super_dag_makespan_scaled(
    durations: &[Vec<Duration>],
    preds: &[Vec<Vec<usize>>],
    threads: usize,
    select: &[Vec<bool>],
    speedup: f64,
) -> Duration {
    let scaled = scale_super_durations(durations, select, speedup);
    super_dag_makespan(&scaled, preds, threads)
}

/// As [`super_dag_makespan_scaled`], on the two-lane stealing topology of
/// [`super_dag_makespan_lanes`].
pub fn super_dag_makespan_lanes_scaled(
    durations: &[Vec<Duration>],
    preds: &[Vec<Vec<usize>>],
    threads: usize,
    io_threads: usize,
    io_lane: &[Vec<bool>],
    select: &[Vec<bool>],
    speedup: f64,
) -> Duration {
    let scaled = scale_super_durations(durations, select, speedup);
    super_dag_makespan_lanes(&scaled, preds, threads, io_threads, io_lane)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn single_thread_is_sum() {
        let d = vec![ms(3), ms(5), ms(2)];
        assert_eq!(tasks_makespan(&d, 1), ms(10));
    }

    #[test]
    fn tasks_greedy_schedule() {
        // 3 tasks of 5,4,3 on 2 threads: t1={5}, t2={4,3} -> 7
        assert_eq!(tasks_makespan(&[ms(5), ms(4), ms(3)], 2), ms(7));
        // plenty of threads: max task
        assert_eq!(tasks_makespan(&[ms(5), ms(4), ms(3)], 8), ms(5));
        assert_eq!(tasks_makespan(&[], 4), Duration::ZERO);
    }

    #[test]
    fn dag_chain_is_sequential() {
        let d = vec![ms(3), ms(5), ms(2)];
        let preds = vec![vec![], vec![0], vec![1]];
        for threads in [1, 4, 16] {
            assert_eq!(dag_makespan(&d, &preds, threads), ms(10));
        }
    }

    #[test]
    fn dag_independent_nodes_pack_like_tasks() {
        let d = vec![ms(5), ms(4), ms(3)];
        let preds = vec![vec![]; 3];
        assert_eq!(dag_makespan(&d, &preds, 2), tasks_makespan(&d, 2));
        assert_eq!(dag_makespan(&d, &preds, 8), ms(5));
    }

    #[test]
    fn dag_diamond_overlaps_branches() {
        // 0 (2ms) -> {1 (4ms), 2 (6ms)} -> 3 (1ms): branches overlap on
        // two threads, so 2 + 6 + 1 = 9ms instead of the 13ms serial sum.
        let d = vec![ms(2), ms(4), ms(6), ms(1)];
        let preds = vec![vec![], vec![0], vec![0], vec![1, 2]];
        assert_eq!(dag_makespan(&d, &preds, 2), ms(9));
        assert_eq!(dag_makespan(&d, &preds, 1), ms(13));
    }

    #[test]
    fn dag_makespan_bounds_hold() {
        let d: Vec<Duration> = (1..=12).map(|i| ms(i * 5 % 11 + 1)).collect();
        // Layered graph: node i depends on i-3 (three independent chains
        // braided by a shared head).
        let preds: Vec<Vec<usize>> = (0..12)
            .map(|i| if i < 3 { vec![] } else { vec![i - 3] })
            .collect();
        let sum: Duration = d.iter().sum();
        // Critical path: the heaviest of the three chains.
        let chain = |start: usize| -> Duration { (0..4).map(|k| d[start + 3 * k]).sum() };
        let cp = chain(0).max(chain(1)).max(chain(2));
        for threads in [1usize, 2, 3, 8] {
            let m = dag_makespan(&d, &preds, threads);
            assert!(m <= sum, "{threads}");
            assert!(m >= cp, "{threads}");
            assert!(m >= sum / threads as u32, "{threads}");
        }
        // Enough threads: exactly the critical path.
        assert_eq!(dag_makespan(&d, &preds, 3), cp);
    }

    #[test]
    fn dag_empty_is_zero() {
        assert_eq!(dag_makespan(&[], &[], 4), Duration::ZERO);
    }

    #[test]
    fn super_dag_union_never_beats_fewer_constraints() {
        // Three chains of different lengths: the union on T threads is at
        // most the back-to-back sum and at least the longest chain.
        let chains: Vec<Vec<Duration>> =
            vec![vec![ms(8), ms(4), ms(2)], vec![ms(1), ms(1)], vec![ms(5)]];
        let preds: Vec<Vec<Vec<usize>>> = chains
            .iter()
            .map(|c| {
                (0..c.len())
                    .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
                    .collect()
            })
            .collect();
        let per_graph: Vec<Duration> = chains.iter().map(|c| c.iter().sum()).collect();
        let back_to_back: Duration = per_graph.iter().sum();
        let longest = *per_graph.iter().max().unwrap();
        for threads in [1usize, 2, 4] {
            let m = super_dag_makespan(&chains, &preds, threads);
            assert!(m <= back_to_back, "{threads}");
            assert!(m >= longest, "{threads}");
        }
        // One thread: no overlap is possible, the union is the sum.
        assert_eq!(super_dag_makespan(&chains, &preds, 1), back_to_back);
        // Plenty of threads: every chain runs concurrently.
        assert_eq!(super_dag_makespan(&chains, &preds, 4), longest);
    }

    #[test]
    fn super_dag_of_empty_and_zero_graphs() {
        assert_eq!(super_dag_makespan(&[], &[], 4), Duration::ZERO);
        assert_eq!(
            super_dag_makespan(&[vec![], vec![ms(3)]], &[vec![], vec![vec![]]], 2),
            ms(3)
        );
    }

    #[test]
    fn lanes_off_matches_single_lane_schedule() {
        let d: Vec<Duration> = (1..=10).map(|i| ms(i * 7 % 13 + 1)).collect();
        let preds: Vec<Vec<usize>> = (0..10)
            .map(|i| if i < 2 { vec![] } else { vec![i - 2] })
            .collect();
        let lanes: Vec<bool> = (0..10).map(|i| i % 3 == 0).collect();
        for threads in [1usize, 2, 4] {
            let base = dag_makespan(&d, &preds, threads);
            // io_threads == 0 and empty hints both mean "lane off".
            assert_eq!(dag_makespan_lanes(&d, &preds, threads, 0, &lanes), base);
            assert_eq!(dag_makespan_lanes(&d, &preds, threads, 2, &[]), base);
            // All-compute hints with a live lane equal the single-lane
            // schedule on the *combined* worker count: the otherwise-idle
            // I/O workers steal compute nodes.
            assert_eq!(
                dag_makespan_lanes(&d, &preds, threads, 2, &[false; 10]),
                dag_makespan(&d, &preds, threads + 2)
            );
        }
    }

    #[test]
    fn stealing_lane_never_loses_to_lane_off() {
        // The stealing replay schedules on threads + io_threads workers
        // with affinity bias, so lane-on must not fall behind the lane-off
        // schedule on the same compute width — the strict-partition
        // pathology this model replaced.
        let d: Vec<Duration> = (1..=18).map(|i| ms(i * 5 % 9 + 1)).collect();
        let preds: Vec<Vec<usize>> = (0..18)
            .map(|i| if i < 3 { vec![] } else { vec![i - 3] })
            .collect();
        let lanes: Vec<bool> = (0..18).map(|i| i % 2 == 0).collect();
        for threads in [1usize, 2, 4, 8] {
            for io in [1usize, 2, 4] {
                let on = dag_makespan_lanes(&d, &preds, threads, io, &lanes);
                let off = dag_makespan(&d, &preds, threads);
                assert!(
                    on <= off,
                    "lane-on {on:?} beat by lane-off {off:?} at {threads}+{io}"
                );
            }
        }
    }

    #[test]
    fn io_lane_overlaps_disk_with_compute() {
        // Two independent compute -> io chains on one compute thread:
        // lane-off serializes everything to 20ms. With a 1-wide I/O lane
        // the idle I/O worker *steals* the second chain's compute root, so
        // the chains overlap fully: compute 0..5ms, I/O 5..10ms.
        let d = vec![ms(5); 4];
        let preds = vec![vec![], vec![0], vec![], vec![2]];
        let lanes = [false, true, false, true];
        assert_eq!(dag_makespan(&d, &preds, 1), ms(20));
        assert_eq!(dag_makespan_lanes(&d, &preds, 1, 1, &lanes), ms(10));
        // Wider lanes can't improve on the critical path (one chain).
        assert_eq!(dag_makespan_lanes(&d, &preds, 2, 2, &lanes), ms(10));
    }

    #[test]
    fn super_dag_lanes_flatten_like_union() {
        let chains: Vec<Vec<Duration>> = vec![vec![ms(3), ms(2)], vec![ms(4), ms(1)]];
        let preds: Vec<Vec<Vec<usize>>> = vec![vec![vec![], vec![0]], vec![vec![], vec![0]]];
        let lanes: Vec<Vec<bool>> = vec![vec![false, true], vec![false, true]];
        // Lane off reproduces the plain union.
        assert_eq!(
            super_dag_makespan_lanes(&chains, &preds, 2, 0, &lanes),
            super_dag_makespan(&chains, &preds, 2)
        );
        // With a lane the result can only improve on one compute thread.
        assert!(
            super_dag_makespan_lanes(&chains, &preds, 1, 1, &lanes)
                <= super_dag_makespan(&chains, &preds, 1)
        );
    }

    #[test]
    fn scaled_replay_matches_rerun_on_scaled_inputs() {
        // The what-if prediction is *defined* as the replay of pre-scaled
        // durations, so the two must agree exactly for any selection.
        let chains: Vec<Vec<Duration>> =
            vec![vec![ms(8), ms(4), ms(2)], vec![ms(6), ms(6)], vec![ms(5)]];
        let preds: Vec<Vec<Vec<usize>>> = chains
            .iter()
            .map(|c| {
                (0..c.len())
                    .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
                    .collect()
            })
            .collect();
        let select: Vec<Vec<bool>> = chains
            .iter()
            .map(|c| (0..c.len()).map(|i| i % 2 == 0).collect())
            .collect();
        for speedup in [1.0, 1.5, 2.0, 4.0] {
            for threads in [1usize, 2, 4] {
                let predicted =
                    super_dag_makespan_scaled(&chains, &preds, threads, &select, speedup);
                let rerun = super_dag_makespan(
                    &scale_super_durations(&chains, &select, speedup),
                    &preds,
                    threads,
                );
                assert_eq!(predicted, rerun, "speedup {speedup} threads {threads}");
            }
        }
    }

    #[test]
    fn scaling_nothing_or_by_one_is_identity() {
        let chains: Vec<Vec<Duration>> = vec![vec![ms(3), ms(2)], vec![ms(4)]];
        let preds: Vec<Vec<Vec<usize>>> = vec![vec![vec![], vec![0]], vec![vec![]]];
        let all: Vec<Vec<bool>> = chains.iter().map(|c| vec![true; c.len()]).collect();
        let base = super_dag_makespan(&chains, &preds, 2);
        assert_eq!(
            super_dag_makespan_scaled(&chains, &preds, 2, &[], 4.0),
            base
        );
        assert_eq!(
            super_dag_makespan_scaled(&chains, &preds, 2, &all, 1.0),
            base
        );
        // Scaling everything by 2 halves every duration, so the whole
        // schedule shrinks by exactly 2.
        assert_eq!(
            super_dag_makespan_scaled(&chains, &preds, 2, &all, 2.0),
            base / 2
        );
    }

    #[test]
    fn speeding_a_kernel_up_never_slows_the_batch() {
        let chains: Vec<Vec<Duration>> = vec![
            vec![ms(8), ms(4), ms(2), ms(7)],
            vec![ms(6), ms(6), ms(1)],
            vec![ms(5), ms(9)],
        ];
        let preds: Vec<Vec<Vec<usize>>> = chains
            .iter()
            .map(|c| {
                (0..c.len())
                    .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
                    .collect()
            })
            .collect();
        let select: Vec<Vec<bool>> = chains
            .iter()
            .map(|c| (0..c.len()).map(|i| i == 1).collect())
            .collect();
        let lanes: Vec<Vec<bool>> = chains
            .iter()
            .map(|c| (0..c.len()).map(|i| i % 2 == 0).collect())
            .collect();
        for threads in [1usize, 2, 4] {
            let mut last = Duration::MAX;
            for speedup in [1.0, 2.0, 4.0, 8.0] {
                let m = super_dag_makespan_scaled(&chains, &preds, threads, &select, speedup);
                assert!(m <= last, "speedup {speedup} threads {threads}");
                last = m;
                let lanes_m = super_dag_makespan_lanes_scaled(
                    &chains, &preds, threads, 2, &lanes, &select, speedup,
                );
                assert!(lanes_m <= m, "lanes at speedup {speedup} threads {threads}");
            }
        }
    }
}
