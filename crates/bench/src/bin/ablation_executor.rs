//! Ablation — work-stealing vs single-queue executor (DESIGN.md §4).
//!
//! The paper (Sec. III-B): "The Lamellar thread pool utilizes a
//! work-stealing implementation." This harness measures a recursive
//! fan-out task graph and a flat task burst under both scheduling modes of
//! [`lamellar_executor::ThreadPool`].
//!
//! Usage: `... --bin ablation_executor [--tasks 20000] [--workers 4]`

use lamellar_bench::{arg_usize, ResultTable};
use lamellar_executor::{PoolConfig, ThreadPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn flat_burst(pool: &ThreadPool, tasks: usize) -> f64 {
    let counter = Arc::new(AtomicUsize::new(0));
    let t = Instant::now();
    for _ in 0..tasks {
        let c = Arc::clone(&counter);
        drop(pool.spawn(async move {
            // A little CPU work per task.
            let mut x = 0u64;
            for i in 0..64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(x);
            c.fetch_add(1, Ordering::Relaxed);
        }));
    }
    pool.wait_idle();
    assert_eq!(counter.load(Ordering::Relaxed), tasks);
    tasks as f64 / t.elapsed().as_secs_f64()
}

fn fanout(pool: Arc<ThreadPool>, counter: Arc<AtomicUsize>, depth: usize) {
    counter.fetch_add(1, Ordering::Relaxed);
    if depth == 0 {
        return;
    }
    for _ in 0..2 {
        let p = Arc::clone(&pool);
        let c = Arc::clone(&counter);
        let spawn_on = Arc::clone(&pool);
        drop(spawn_on.spawn(async move { fanout(p, c, depth - 1) }));
    }
}

fn recursive_tree(pool: Arc<ThreadPool>, depth: usize) -> f64 {
    let counter = Arc::new(AtomicUsize::new(0));
    let expect = (1usize << (depth + 1)) - 1;
    let t = Instant::now();
    fanout(Arc::clone(&pool), Arc::clone(&counter), depth);
    pool.wait_idle();
    assert_eq!(counter.load(Ordering::Relaxed), expect);
    expect as f64 / t.elapsed().as_secs_f64()
}

fn main() {
    let tasks = arg_usize("--tasks", 20_000);
    let workers = arg_usize("--workers", 4);
    let depth = 13; // 16383-node spawn tree

    println!("Ablation: executor scheduling, {workers} workers");
    let mut table =
        ResultTable::new("Executor", "mode", "tasks/s", &["flat-burst", "recursive-tree"]);
    for (label, single) in [("work-stealing", false), ("single-queue", true)] {
        let pool = Arc::new(ThreadPool::new(PoolConfig {
            workers,
            single_queue: single,
            thread_name: format!("abl-{label}"),
            metrics: true,
        }));
        let flat = flat_burst(&pool, tasks);
        let tree = recursive_tree(Arc::clone(&pool), depth);
        let stats = pool.stats();
        println!("  {label}: completed {} tasks, {} via stealing", stats.completed, stats.stolen);
        table.push_row(label, vec![Some(flat), Some(tree)]);
    }
    print!("{}", table.render());
    let _ = table.write_csv("ablation_executor");
}
