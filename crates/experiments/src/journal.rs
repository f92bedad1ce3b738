//! Crash-safe checkpoint/resume journal for ratio sweeps.
//!
//! A sweep over a large (p, k) grid can be killed mid-run — by a CI
//! timeout, an OOM reaper, or a ^C. The journal makes that survivable:
//! every completed cell is appended to an on-disk JSONL file *as it
//! finishes*, keyed by a hash of the cell's full configuration, and a
//! restarted sweep skips every journaled cell. The final output is
//! assembled in deterministic grid order from journaled + fresh cells, so
//! a resumed run produces **byte-identical** output to an uninterrupted
//! one.
//!
//! Two representation choices make the byte-identical guarantee hold:
//!
//! * f64 fields are journaled as their IEEE-754 **bit patterns** (hex),
//!   not as decimal text, so a resumed cell's floats are exactly the
//!   floats the original run computed — no round-trip through a decimal
//!   formatter.
//! * A line is only trusted if it parses completely and ends in `}`. A
//!   process killed mid-append leaves at most one partial trailing line,
//!   which is ignored; that cell simply re-runs.

use crate::common::{run_cell_budgeted_flat, CellBudget, ScratchPool, TracePool};
use crate::sweep::RatioCell;
use hbm_core::fxhash::FxHasher;
use hbm_core::ArbitrationKind;
use hbm_serve::json::{fmt_f64, Json};
use hbm_serve::shutdown::ShutdownFlag;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// Journal format tag, hashed into every cell key. Bumping it invalidates
/// journals written by incompatible versions (their keys never match).
const FORMAT_TAG: &str = "hbm-sweep-journal-v1";

/// Hash key identifying one sweep cell: the sweep `tag` (workload family +
/// anything not captured by the numeric parameters), the grid coordinates,
/// and the challenger policy. Two cells collide only if every input that
/// affects the simulation matches.
pub fn cell_key(
    tag: &str,
    p: usize,
    k: usize,
    q: usize,
    seed: u64,
    challenger: ArbitrationKind,
) -> u64 {
    let mut h = FxHasher::default();
    h.write(FORMAT_TAG.as_bytes());
    h.write(tag.as_bytes());
    h.write_usize(p);
    h.write_usize(k);
    h.write_usize(q);
    h.write_u64(seed);
    h.write(format!("{challenger:?}").as_bytes());
    h.finish()
}

/// A record type that can live in a [`JournalFile`]: one journal line per
/// record, keyed by a config hash. Implementations must keep the
/// byte-identical-resume contract: `parse_line(format_line(k, r)) ==
/// Some((k, r))` with f64 fields round-tripping **bit-exactly** (journal
/// them as `{:016x}` bit patterns, not decimal text).
pub trait JournalRecord: Sized {
    /// Serializes one record (plus its key) as a single `\n`-terminated
    /// JSONL line ending in `}`.
    fn format_line(&self, key: u64) -> String;
    /// Parses one journal line; `None` for partial or corrupt lines (the
    /// cell re-runs — a journal is a cache, never an authority).
    fn parse_line(line: &str) -> Option<(u64, Self)>;
}

/// Append-only JSONL journal of completed cells of any [`JournalRecord`]
/// type. [`SweepJournal`] is the ratio-sweep instantiation; the design
/// explorer journals its simulated frontier cells through the same
/// machinery (`JournalFile<ExploreRecord>`).
pub struct JournalFile<T> {
    path: PathBuf,
    cells: HashMap<u64, T>,
    writer: Mutex<File>,
}

/// Append-only JSONL journal of completed [`RatioCell`]s.
pub type SweepJournal = JournalFile<RatioCell>;

impl<T: JournalRecord> JournalFile<T> {
    /// Opens (creating if absent) the journal at `path`, loading every
    /// complete line already present. A partial trailing line — the
    /// signature of a mid-append kill — is tolerated and ignored.
    pub fn open(path: impl AsRef<Path>) -> io::Result<JournalFile<T>> {
        let path = path.as_ref().to_path_buf();
        let mut cells = HashMap::new();
        match File::open(&path) {
            Ok(mut f) => {
                let mut text = String::new();
                f.read_to_string(&mut text)?;
                for line in text.lines() {
                    if let Some((key, cell)) = T::parse_line(line) {
                        cells.insert(key, cell);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let writer = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(JournalFile {
            path,
            cells,
            writer: Mutex::new(writer),
        })
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of cells loaded from disk at open time.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells were loaded at open time.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The journaled cell for `key`, if its run already completed.
    pub fn get(&self, key: u64) -> Option<&T> {
        self.cells.get(&key)
    }

    /// Appends one completed cell and flushes it to disk before
    /// returning, so a kill after `record` never loses the cell.
    pub fn record(&self, key: u64, cell: &T) -> io::Result<()> {
        let line = cell.format_line(key);
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        w.write_all(line.as_bytes())?;
        w.flush()
    }
}

impl JournalRecord for RatioCell {
    fn format_line(&self, key: u64) -> String {
        format_line(key, self)
    }

    fn parse_line(line: &str) -> Option<(u64, RatioCell)> {
        parse_line(line)
    }
}

fn format_line(key: u64, c: &RatioCell) -> String {
    format!(
        "{{\"key\":\"{key:016x}\",\"p\":{},\"k\":{},\"fifo_makespan\":{},\
         \"challenger_makespan\":{},\"fifo_hit_rate_bits\":\"{:016x}\",\
         \"challenger_hit_rate_bits\":\"{:016x}\",\"truncated\":{}}}\n",
        c.p,
        c.k,
        c.fifo_makespan,
        c.challenger_makespan,
        c.fifo_hit_rate.to_bits(),
        c.challenger_hit_rate.to_bits(),
        c.truncated,
    )
}

/// Extracts `"field":"<16 hex digits>"` from a parsed journal object.
pub(crate) fn json_hex(v: &Json, field: &str) -> Option<u64> {
    let s = v.get(field)?.as_str()?;
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Parses one journal line via the shared [`hbm_serve::json`] codec;
/// `None` for partial or corrupt lines (the cell re-runs — the journal is
/// a cache, never an authority). The historical hand-rolled field
/// scanners accepted exactly the lines [`Json::parse`] accepts here, so
/// journals written by older versions load unchanged.
fn parse_line(line: &str) -> Option<(u64, RatioCell)> {
    let line = line.trim_end();
    if !line.starts_with('{') || !line.ends_with('}') {
        return None;
    }
    let v = Json::parse(line).ok()?;
    let key = json_hex(&v, "key")?;
    Some((
        key,
        RatioCell {
            p: v.get("p")?.as_usize()?,
            k: v.get("k")?.as_usize()?,
            fifo_makespan: v.get("fifo_makespan")?.as_u64()?,
            challenger_makespan: v.get("challenger_makespan")?.as_u64()?,
            fifo_hit_rate: f64::from_bits(json_hex(&v, "fifo_hit_rate_bits")?),
            challenger_hit_rate: f64::from_bits(json_hex(&v, "challenger_hit_rate_bits")?),
            truncated: v.get("truncated")?.as_bool()?,
        },
    ))
}

/// Execution options for a journaled sweep.
#[derive(Clone, Default)]
pub struct SweepRunOptions {
    /// Per-cell tick/wall budget.
    pub budget: CellBudget,
    /// Worker threads; 0 means [`hbm_par::default_threads`].
    pub threads: usize,
    /// Artificial per-cell delay. Used by the CI resume-smoke test to
    /// make "killed mid-run" a deterministic state rather than a race.
    pub throttle: Option<Duration>,
    /// Cooperative cancellation (the CLI wires SIGTERM/SIGINT here). A
    /// tripped flag stops *scheduling* cells; cells already running finish
    /// and are journaled, so a cancelled sweep resumes from exactly where
    /// it drained.
    pub cancel: Option<ShutdownFlag>,
}

/// One cell that did not produce a result: either its simulation config
/// was rejected or its worker panicked.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Thread count of the failed cell.
    pub p: usize,
    /// HBM slots of the failed cell.
    pub k: usize,
    /// Human-readable cause.
    pub reason: String,
}

/// Result of a journaled sweep run.
pub struct SweepOutcome {
    /// Completed cells in deterministic (p-major, then k) grid order.
    /// When the run was cancelled, cells that never ran are absent (the
    /// order of the survivors is still deterministic).
    pub cells: Vec<RatioCell>,
    /// Cells that failed (typed config error or panic); the rest of the
    /// sweep is unaffected.
    pub failures: Vec<CellFailure>,
    /// How many cells were restored from the journal instead of re-run.
    pub resumed: usize,
    /// How many cells were skipped because the cancel flag tripped. Zero
    /// means the sweep ran to completion.
    pub cancelled: usize,
}

/// Runs the (threads × hbm_sizes) ratio sweep with crash-safe journaling.
///
/// Cells already present in `journal` are skipped. Each remaining cell is
/// one parallel work item: it fetches its thread count's memoized
/// [`FlatWorkload`](hbm_core::FlatWorkload), runs FIFO and the
/// challenger, and is journaled (and flushed) the moment it finishes. A
/// cell whose worker panics or whose config is rejected fails alone — it
/// becomes a [`CellFailure`] and every other cell still completes. Output
/// order is deterministic regardless of which cells resumed, so fresh and
/// resumed runs of the same grid yield identical `cells`.
#[allow(clippy::too_many_arguments)]
pub fn run_journaled_sweep(
    pool: &TracePool,
    tag: &str,
    threads_grid: &[usize],
    hbm_sizes: &[usize],
    challenger: impl Fn(usize) -> ArbitrationKind + Sync,
    q: usize,
    seed: u64,
    journal: &SweepJournal,
    opts: &SweepRunOptions,
) -> SweepOutcome {
    let grid: Vec<(u64, usize, usize)> = threads_grid
        .iter()
        .flat_map(|&p| hbm_sizes.iter().map(move |&k| (p, k)))
        .map(|(p, k)| (cell_key(tag, p, k, q, seed, challenger(k)), p, k))
        .collect();

    let todo: Vec<(u64, usize, usize)> = grid
        .iter()
        .copied()
        .filter(|&(key, _, _)| journal.get(key).is_none())
        .collect();
    let resumed = grid.len() - todo.len();

    let workers = if opts.threads == 0 {
        hbm_par::default_threads()
    } else {
        opts.threads
    };
    let scratches = ScratchPool::new();
    let fresh = hbm_par::try_parallel_map_with(&todo, workers, |&(key, p, k)| {
        // Checked once per cell, before any work: a tripped flag means the
        // cell never starts. Cells already past this point run to
        // completion and are journaled (drain-and-flush), so resuming
        // after a cancel re-runs only genuinely unstarted cells.
        if opts.cancel.as_ref().is_some_and(|c| c.is_set()) {
            return Ok(None);
        }
        if let Some(throttle) = opts.throttle {
            // Per-cell pacing (the CI resume-smoke contract).
            std::thread::sleep(throttle);
        }
        let flat = pool.flat(p);
        let (fifo, chal) = scratches.with(|scratch| {
            let fifo = run_cell_budgeted_flat(
                &flat,
                k,
                q,
                ArbitrationKind::Fifo,
                seed,
                opts.budget,
                scratch,
            )?;
            let chal =
                run_cell_budgeted_flat(&flat, k, q, challenger(k), seed, opts.budget, scratch)?;
            Ok::<_, hbm_core::SimError>((fifo, chal))
        })?;
        let cell = RatioCell::from_reports(p, k, &fifo, &chal);
        journal.record(key, &cell).map_err(CellError::Io)?;
        Ok::<Option<RatioCell>, CellError>(Some(cell))
    });

    // `todo` is a grid-ordered subsequence, so its results merge back in
    // one pass.
    let mut fresh = todo.iter().map(|&(key, _, _)| key).zip(fresh).peekable();
    let mut cells = Vec::with_capacity(grid.len());
    let mut failures = Vec::new();
    let mut cancelled = 0;
    for &(key, p, k) in &grid {
        let Some((_, res)) = fresh.next_if(|&(fresh_key, _)| fresh_key == key) else {
            cells.push(*journal.get(key).expect("unscheduled cells are journaled"));
            continue;
        };
        match res {
            Ok(Ok(Some(cell))) => cells.push(cell),
            Ok(Ok(None)) => cancelled += 1,
            Ok(Err(e)) => failures.push(CellFailure {
                p,
                k,
                reason: format!("cell (p={p}, k={k}): {e}"),
            }),
            Err(panic) => failures.push(CellFailure {
                p,
                k,
                reason: format!("cell (p={p}, k={k}) panicked: {}", panic.message),
            }),
        }
    }
    SweepOutcome {
        cells,
        failures,
        resumed,
        cancelled,
    }
}

/// Cell-level error inside the sweep closure: a typed simulation error or
/// a journal IO failure.
#[derive(Debug)]
enum CellError {
    Sim(hbm_core::SimError),
    Io(io::Error),
}

impl From<hbm_core::SimError> for CellError {
    fn from(e: hbm_core::SimError) -> Self {
        CellError::Sim(e)
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Sim(e) => write!(f, "{e}"),
            CellError::Io(e) => write!(f, "journal write failed: {e}"),
        }
    }
}

/// Serializes sweep cells as a deterministic JSON array: fixed field
/// order, grid-ordered cells, floats via Rust's shortest-roundtrip
/// formatter (bit-exact inputs therefore format identically). This is the
/// artifact the resume-smoke CI job byte-compares.
pub fn cells_to_json(cells: &[RatioCell]) -> String {
    let mut out = String::from("[\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"p\":{},\"k\":{},\"fifo_makespan\":{},\"challenger_makespan\":{},\
             \"fifo_hit_rate\":{},\"challenger_hit_rate\":{},\"truncated\":{}}}{}\n",
            c.p,
            c.k,
            c.fifo_makespan,
            c.challenger_makespan,
            json_f64(c.fifo_hit_rate),
            json_f64(c.challenger_hit_rate),
            c.truncated,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("]\n");
    out
}

/// JSON-safe f64 — the shared codec's formatter ([`fmt_f64`]), kept under
/// its historical local name. Byte-identical to the formatter this module
/// used before the codec was extracted, so existing artifacts reproduce.
fn json_f64(x: f64) -> String {
    fmt_f64(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_traces::{TraceOptions, WorkloadSpec};
    use std::sync::atomic::{AtomicU32, Ordering};

    static TMP_SEQ: AtomicU32 = AtomicU32::new(0);

    /// A unique temp path per test invocation; removed on drop.
    struct TempPath(PathBuf);

    impl TempPath {
        fn new(stem: &str) -> TempPath {
            let n = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
            TempPath(std::env::temp_dir().join(format!(
                "hbm-journal-test-{}-{stem}-{n}.jsonl",
                std::process::id()
            )))
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn sample_cell() -> RatioCell {
        RatioCell {
            p: 8,
            k: 64,
            fifo_makespan: 123_456,
            challenger_makespan: 98_765,
            fifo_hit_rate: 0.1 + 0.2, // deliberately non-representable: 0.30000000000000004
            challenger_hit_rate: 0.75,
            truncated: false,
        }
    }

    fn tiny_pool() -> TracePool {
        TracePool::generate(
            WorkloadSpec::Cyclic { pages: 16, reps: 4 },
            4,
            1,
            TraceOptions::default(),
        )
    }

    #[test]
    fn record_then_reopen_round_trips_bit_exactly() {
        let tmp = TempPath::new("roundtrip");
        let cell = sample_cell();
        {
            let j = SweepJournal::open(&tmp.0).unwrap();
            assert!(j.is_empty());
            j.record(42, &cell).unwrap();
        }
        let j = SweepJournal::open(&tmp.0).unwrap();
        assert_eq!(j.len(), 1);
        let got = j.get(42).unwrap();
        assert_eq!(*got, cell);
        assert_eq!(got.fifo_hit_rate.to_bits(), cell.fifo_hit_rate.to_bits());
    }

    #[test]
    fn partial_trailing_line_is_ignored() {
        let tmp = TempPath::new("partial");
        {
            let j = SweepJournal::open(&tmp.0).unwrap();
            j.record(1, &sample_cell()).unwrap();
        }
        // Simulate a kill mid-append: a second line cut off partway.
        let full = format_line(2, &sample_cell());
        let mut f = OpenOptions::new().append(true).open(&tmp.0).unwrap();
        f.write_all(&full.as_bytes()[..full.len() / 2]).unwrap();
        drop(f);
        let j = SweepJournal::open(&tmp.0).unwrap();
        assert_eq!(j.len(), 1, "the torn line must not load");
        assert!(j.get(1).is_some());
        assert!(j.get(2).is_none());
    }

    #[test]
    fn corrupt_middle_line_is_skipped_not_fatal() {
        let tmp = TempPath::new("corrupt");
        {
            let j = SweepJournal::open(&tmp.0).unwrap();
            j.record(1, &sample_cell()).unwrap();
        }
        let mut f = OpenOptions::new().append(true).open(&tmp.0).unwrap();
        f.write_all(b"{\"key\":\"zzzz\",garbage}\n").unwrap();
        drop(f);
        {
            let j = SweepJournal::open(&tmp.0).unwrap();
            j.record(3, &sample_cell()).unwrap();
        }
        let j = SweepJournal::open(&tmp.0).unwrap();
        assert_eq!(j.len(), 2);
        assert!(j.get(1).is_some() && j.get(3).is_some());
    }

    #[test]
    fn cell_keys_separate_every_parameter() {
        let base = cell_key("t", 2, 32, 1, 7, ArbitrationKind::Priority);
        let variants = [
            cell_key("u", 2, 32, 1, 7, ArbitrationKind::Priority),
            cell_key("t", 3, 32, 1, 7, ArbitrationKind::Priority),
            cell_key("t", 2, 33, 1, 7, ArbitrationKind::Priority),
            cell_key("t", 2, 32, 2, 7, ArbitrationKind::Priority),
            cell_key("t", 2, 32, 1, 8, ArbitrationKind::Priority),
            cell_key("t", 2, 32, 1, 7, ArbitrationKind::Fifo),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} collided");
        }
    }

    #[test]
    fn journaled_sweep_matches_plain_sweep() {
        let tmp = TempPath::new("matches");
        let pool = tiny_pool();
        let journal = SweepJournal::open(&tmp.0).unwrap();
        let outcome = run_journaled_sweep(
            &pool,
            "test",
            &[2, 4],
            &[16, 32],
            |_| ArbitrationKind::Priority,
            1,
            0,
            &journal,
            &SweepRunOptions::default(),
        );
        assert!(outcome.failures.is_empty());
        assert_eq!(outcome.resumed, 0);
        let plain = crate::sweep::ratio_sweep(
            &pool,
            &[2, 4],
            &[16, 32],
            |_| ArbitrationKind::Priority,
            1,
            0,
        );
        assert_eq!(outcome.cells, plain);
    }

    #[test]
    fn resumed_sweep_is_byte_identical() {
        let tmp = TempPath::new("resume");
        let pool = tiny_pool();
        let run = |journal: &SweepJournal| {
            run_journaled_sweep(
                &pool,
                "test",
                &[1, 2, 4],
                &[16, 32],
                |_| ArbitrationKind::Priority,
                1,
                0,
                journal,
                &SweepRunOptions::default(),
            )
        };
        let first = {
            let journal = SweepJournal::open(&tmp.0).unwrap();
            run(&journal)
        };
        assert_eq!(first.resumed, 0);
        // Reopen: every cell must come back from disk, and the JSON
        // artifact must match the fresh run byte for byte.
        let journal = SweepJournal::open(&tmp.0).unwrap();
        let second = run(&journal);
        assert_eq!(second.resumed, 6);
        assert_eq!(cells_to_json(&second.cells), cells_to_json(&first.cells));
    }

    #[test]
    fn partially_journaled_sweep_fills_only_the_gap() {
        let tmp = TempPath::new("gap");
        let pool = tiny_pool();
        let full = {
            let journal = SweepJournal::open(&tmp.0).unwrap();
            run_journaled_sweep(
                &pool,
                "test",
                &[1, 2, 4],
                &[16, 32],
                |_| ArbitrationKind::Priority,
                1,
                0,
                &journal,
                &SweepRunOptions::default(),
            )
        };
        // Truncate the journal to its first 3 lines — as if the run died
        // halfway — and resume.
        let text = std::fs::read_to_string(&tmp.0).unwrap();
        let keep: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        std::fs::write(&tmp.0, keep).unwrap();
        let journal = SweepJournal::open(&tmp.0).unwrap();
        assert_eq!(journal.len(), 3);
        let resumed = run_journaled_sweep(
            &pool,
            "test",
            &[1, 2, 4],
            &[16, 32],
            |_| ArbitrationKind::Priority,
            1,
            0,
            &journal,
            &SweepRunOptions::default(),
        );
        assert_eq!(resumed.resumed, 3);
        assert_eq!(cells_to_json(&resumed.cells), cells_to_json(&full.cells));
    }

    #[test]
    fn invalid_cell_fails_alone() {
        let tmp = TempPath::new("badcell");
        let pool = tiny_pool();
        let journal = SweepJournal::open(&tmp.0).unwrap();
        // q = 0 is a typed ConfigError for every cell; no panic escapes.
        let outcome = run_journaled_sweep(
            &pool,
            "test",
            &[2],
            &[16, 32],
            |_| ArbitrationKind::Priority,
            0,
            0,
            &journal,
            &SweepRunOptions::default(),
        );
        assert!(outcome.cells.is_empty());
        assert_eq!(outcome.failures.len(), 2);
        assert!(outcome.failures[0].reason.contains("channel"));
    }

    #[test]
    fn json_is_valid_and_deterministic() {
        let cells = vec![sample_cell()];
        let a = cells_to_json(&cells);
        let b = cells_to_json(&cells);
        assert_eq!(a, b);
        assert!(a.starts_with("[\n"));
        assert!(a.ends_with("]\n"));
        assert!(a.contains("\"fifo_hit_rate\":0.30000000000000004"));
        assert!(cells_to_json(&[]).contains("[\n]"));
    }

    #[test]
    fn json_f64_edge_cases() {
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn tripped_cancel_flag_skips_every_unstarted_cell() {
        let tmp = TempPath::new("cancel");
        let pool = tiny_pool();
        let journal = SweepJournal::open(&tmp.0).unwrap();
        let flag = ShutdownFlag::new();
        flag.trip();
        let outcome = run_journaled_sweep(
            &pool,
            "test",
            &[2, 4],
            &[16, 32],
            |_| ArbitrationKind::Priority,
            1,
            0,
            &journal,
            &SweepRunOptions {
                cancel: Some(flag),
                ..SweepRunOptions::default()
            },
        );
        assert_eq!(
            outcome.cancelled, 4,
            "no cell may start under a tripped flag"
        );
        assert!(outcome.cells.is_empty());
        assert!(outcome.failures.is_empty());
    }

    #[test]
    fn cancelled_sweep_resumes_to_identical_output() {
        let tmp = TempPath::new("cancel-resume");
        let pool = tiny_pool();
        let run = |journal: &SweepJournal, opts: &SweepRunOptions| {
            run_journaled_sweep(
                &pool,
                "test",
                &[1, 2, 4],
                &[16, 32],
                |_| ArbitrationKind::Priority,
                1,
                0,
                journal,
                opts,
            )
        };
        // Reference: an uninterrupted run in a separate journal.
        let full = {
            let tmp2 = TempPath::new("cancel-reference");
            let journal = SweepJournal::open(&tmp2.0).unwrap();
            run(&journal, &SweepRunOptions::default())
        };
        // Cancelled run: the flag trips immediately, so everything is
        // skipped and the journal stays empty — the degenerate drain.
        {
            let journal = SweepJournal::open(&tmp.0).unwrap();
            let flag = ShutdownFlag::new();
            flag.trip();
            let cancelled = run(
                &journal,
                &SweepRunOptions {
                    cancel: Some(flag),
                    ..SweepRunOptions::default()
                },
            );
            assert_eq!(cancelled.cancelled, 6);
        }
        // Resume with an untripped flag: completes, byte-identical.
        let journal = SweepJournal::open(&tmp.0).unwrap();
        let resumed = run(
            &journal,
            &SweepRunOptions {
                cancel: Some(ShutdownFlag::new()),
                ..SweepRunOptions::default()
            },
        );
        assert_eq!(resumed.cancelled, 0);
        assert_eq!(cells_to_json(&resumed.cells), cells_to_json(&full.cells));
    }
}
