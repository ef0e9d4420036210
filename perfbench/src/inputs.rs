//! Seeded inputs and the benchmark's scratch space.
//!
//! Everything here runs outside the timed regions: the program under test
//! sees only the files written to disk.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One generated event: its batch label, input directory and data points.
#[derive(Debug, Clone)]
pub struct Event {
    pub label: String,
    pub dir: PathBuf,
    pub points: usize,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The synthesis seed of event `index` under benchmark seed `seed`. It
/// replaces the dataset's fixed per-event default.
pub fn event_seed(seed: u64, index: usize) -> u64 {
    splitmix64(splitmix64(seed) ^ (0xA5EED + index as u64))
}

/// Writes the six paper events at `scale` under `root/ev<i>/`, one
/// directory per event, on at most `nproc` threads. Labels sort in paper
/// order, so `discover_batch` finds them as generated.
pub fn generate(root: &Path, scale: f64, seed: u64) -> Result<Vec<Event>, String> {
    let specs: Vec<_> = arp_synth::paper_dataset(scale)
        .into_iter()
        .enumerate()
        .map(|(i, mut spec)| {
            spec.seed = event_seed(seed, i);
            spec
        })
        .collect();
    let events: Vec<Event> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| Event {
            label: format!("ev{i}"),
            dir: root.join(format!("ev{i}")),
            points: spec.total_data_points(),
        })
        .collect();
    let next = AtomicUsize::new(0);
    let workers = crate::probe::nproc().min(specs.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else {
                            return Ok(());
                        };
                        let dir = &events[i].dir;
                        std::fs::create_dir_all(dir)
                            .map_err(|e| format!("{}: {e}", dir.display()))?;
                        arp_synth::write_event_inputs(spec, dir).map_err(|e| e.to_string())?;
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("input generator thread panicked"))
    })?;
    Ok(events)
}

/// The events as batch items for `arp_core`'s batch entry points.
pub fn batch_items(events: &[Event]) -> Vec<arp_core::BatchItem> {
    events
        .iter()
        .map(|e| arp_core::BatchItem {
            label: e.label.clone(),
            input_dir: e.dir.clone(),
        })
        .collect()
}

/// Sorted paths of the regular files under `dir`, recursively.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.file_type() {
                Ok(t) if t.is_dir() => stack.push(path),
                Ok(t) if t.is_file() => out.push(path),
                _ => {}
            }
        }
    }
    out.sort();
    out
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    files_under(dir)
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// FNV-1a digest of a directory tree: every file's relative path and bytes,
/// in sorted order. Equal digests mean byte-identical trees.
pub fn tree_digest(dir: &Path) -> Result<u64, String> {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    for path in files_under(dir) {
        let rel = path.strip_prefix(dir).unwrap_or(&path);
        eat(rel.to_string_lossy().as_bytes());
        eat(&[0]);
        eat(&std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?);
        eat(&[0]);
    }
    Ok(h)
}

/// Removes `path` if it exists.
pub fn remove(path: &Path) {
    if path.exists() {
        let _ = std::fs::remove_dir_all(path);
    }
}

/// This run's scratch directory, `.bench_work/<name>-<pid>` under the
/// working directory, removed again when dropped. Directories that runs
/// killed earlier left behind are removed on creation.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new(name: &str) -> Result<Scratch, String> {
        let base = PathBuf::from(".bench_work");
        if let Ok(entries) = std::fs::read_dir(&base) {
            for entry in entries.flatten() {
                let file_name = entry.file_name();
                let stale = file_name
                    .to_string_lossy()
                    .rsplit('-')
                    .next()
                    .and_then(|pid| pid.parse::<u32>().ok())
                    .is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists());
                if stale {
                    remove(&entry.path());
                }
            }
        }
        let root = base.join(format!("{name}-{}", std::process::id()));
        remove(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        let root = root.canonicalize().map_err(|e| e.to_string())?;
        Ok(Scratch { root })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        remove(&self.root);
    }
}
