//! Output checking: an order-normalised digest of a result set and the
//! reference each engine run is compared against.

use crate::workloads::{Cell, Dataset, Workload};
use nebula::prelude::*;

/// What one run produced, reduced to what can be compared: how many
/// events it ingested and dropped as late, and a digest of its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// `QueryMetrics::records_in`.
    pub records_in: u64,
    /// `QueryMetrics::late_drops`.
    pub late_drops: u64,
    /// Result rows delivered.
    pub rows: u64,
    /// [`digest`] of the delivered rows.
    pub digest: u64,
}

/// FNV-1a over the canonical byte encoding of the order-normalised
/// records (each record's bytes prefixed by their length, so record
/// boundaries cannot shift). Executions that differ only in
/// interleaving give one digest. Stable across processes and hosts:
/// it uses no randomised hasher.
pub fn digest(mut records: Vec<Record>) -> u64 {
    normalize_records(&mut records);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for rec in &records {
        let key = record_sort_key(rec);
        eat(&(key.len() as u64).to_le_bytes());
        eat(&key);
    }
    h
}

/// The reference for one cell: the single-threaded `run` on the
/// per-record path (`ColumnarMode::Off`) over the same input.
pub fn reference(ds: &Dataset, workload: &Workload, cell: &Cell, seed: u64) -> Result<Outcome> {
    let mut env = ds.local_env(
        workload.source(ds.records.clone(), seed),
        ColumnarMode::Off,
        false,
    )?;
    let (mut sink, rows) = CollectingSink::new();
    let metrics = env.run(&cell.query, &mut sink)?;
    Ok(Outcome::of(&metrics, rows.records()))
}

impl Outcome {
    /// Reduces a run's metrics and collected rows.
    pub fn of(metrics: &QueryMetrics, rows: Vec<Record>) -> Outcome {
        Outcome {
            records_in: metrics.records_in,
            late_drops: metrics.late_drops,
            rows: rows.len() as u64,
            digest: digest(rows),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{DatasetKind, DEFAULT_SEED, HELD_OUT_SEED};

    /// `sliding_profile` over two jittered minutes; its `max_noise`
    /// column carries the seeded sensor noise.
    fn profile_outcome(seed: u64) -> Outcome {
        let workload = Workload::by_name("stateful_local").expect("workload exists");
        let ds = Dataset::with_minutes(DatasetKind::Fleet24, seed, 2);
        let cell = workload.cells.last().expect("bundle is not empty");
        assert_eq!(cell.query_name, "sliding_profile");
        reference(&ds, &workload, cell, seed).expect("sliding_profile runs")
    }

    #[test]
    fn digest_is_stable_across_generations_and_differs_between_seeds() {
        let a = profile_outcome(DEFAULT_SEED);
        let b = profile_outcome(DEFAULT_SEED);
        assert_eq!(a, b, "one seed, two generations");
        assert_eq!(a.records_in, 24 * 4 * 120);
        assert!(a.rows > 0);
        let held_out = profile_outcome(HELD_OUT_SEED);
        assert_eq!(held_out.records_in, a.records_in);
        assert_ne!(held_out.digest, a.digest, "seeds give different inputs");
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let rec = |a: i64, b: f64| Record::new(vec![Value::Int(a), Value::Float(b)]);
        let forward = digest(vec![rec(1, 0.5), rec(2, 1.5), rec(3, 2.5)]);
        let shuffled = digest(vec![rec(3, 2.5), rec(1, 0.5), rec(2, 1.5)]);
        assert_eq!(forward, shuffled);
        assert_ne!(forward, digest(vec![rec(1, 0.5), rec(2, 1.5), rec(3, 2.0)]));
        assert_ne!(forward, digest(vec![rec(1, 0.5), rec(2, 1.5)]));
        // Record boundaries count: (1, 2)(3) is not (1)(2, 3).
        let split = |at: usize| {
            let v = [Value::Int(1), Value::Int(2), Value::Int(3)];
            digest(vec![
                Record::new(v[..at].to_vec()),
                Record::new(v[at..].to_vec()),
            ])
        };
        assert_ne!(split(1), split(2));
    }
}
