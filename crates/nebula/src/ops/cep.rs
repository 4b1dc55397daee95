//! Complex event processing: keyed sequence-pattern detection with a
//! time bound — the substrate for the paper's geospatial CEP queries.
//!
//! Semantics: *skip-till-next-match*. Per key, a partial match advances by
//! at most one step per record; non-matching records in between are
//! skipped. A match must complete within `within` microseconds of its
//! first event. Partial-match count per key is capped to bound memory on
//! edge devices.

use super::{event_times, BufferKeys, GroupKey, KeyMap, Operator};
use crate::analysis::Code;
use crate::buffer::TupleBuffer;
use crate::error::{NebulaError, Result};
use crate::expr::{Binder, BoundExpr, Expr, FunctionRegistry};
use crate::record::{Record, RecordBuffer, StreamMessage};
use crate::schema::{Field, ReadSet, SchemaRef};
use crate::value::{DataType, DurationUs, EventTime, Value};

/// One step of a pattern.
#[derive(Debug, Clone)]
pub struct PatternStep {
    /// Step name (diagnostics).
    pub name: String,
    /// Condition a record must satisfy to take this step.
    pub predicate: Expr,
}

impl PatternStep {
    /// Builds a step.
    pub fn new(name: impl Into<String>, predicate: Expr) -> Self {
        PatternStep {
            name: name.into(),
            predicate,
        }
    }
}

/// A sequence pattern over a keyed stream.
#[derive(Debug, Clone)]
pub struct Pattern {
    /// Pattern name; emitted in the output's `pattern` column.
    pub name: String,
    /// The ordered steps.
    pub steps: Vec<PatternStep>,
    /// Maximum event-time span from first to last matched event (µs).
    pub within: DurationUs,
    /// Optional partitioning expression (e.g. the train id).
    pub key: Option<Expr>,
    /// Upper bound on concurrent partial matches per key.
    pub max_partials: usize,
}

impl Pattern {
    /// Builds a pattern with the default partial-match cap.
    pub fn new(name: impl Into<String>, steps: Vec<PatternStep>, within: DurationUs) -> Self {
        Pattern {
            name: name.into(),
            steps,
            within,
            key: None,
            max_partials: 256,
        }
    }

    /// Partitions matching by `key`.
    pub fn keyed_by(mut self, key: Expr) -> Self {
        self.key = Some(key);
        self
    }

    /// Overrides the partial-match cap.
    pub fn with_max_partials(mut self, cap: usize) -> Self {
        self.max_partials = cap.max(1);
        self
    }
}

#[derive(Clone, Copy)]
struct Partial {
    next_step: usize,
    first_ts: EventTime,
}

/// The skip-till-next-match automaton's bounds: both evaluation paths
/// advance a key's partials through [`Automaton::advance`].
#[derive(Clone, Copy)]
struct Automaton {
    steps: usize,
    within: DurationUs,
    max_partials: usize,
}

/// The CEP operator. Output schema: the input columns of the *final*
/// matching record, plus `pattern` (TEXT), `match_start` and `match_end`
/// (TIMESTAMP).
#[derive(Clone)]
pub struct CepOp {
    pattern_name: String,
    steps: Vec<BoundExpr>,
    automaton: Automaton,
    key_expr: Option<BoundExpr>,
    ts_col: usize,
    output: SchemaRef,
    state: KeyMap<Vec<Partial>>,
}

impl CepOp {
    /// Binds the pattern against the input schema. `ts_field` names the
    /// event-time column.
    pub fn new(
        pattern: &Pattern,
        ts_field: &str,
        input: &SchemaRef,
        registry: &FunctionRegistry,
    ) -> Result<Self> {
        Self::bind(pattern, ts_field, input, &mut Binder::fail_fast(registry))
    }

    pub(crate) fn bind(
        pattern: &Pattern,
        ts_field: &str,
        input: &SchemaRef,
        b: &mut Binder,
    ) -> Result<Self> {
        b.at("cep");
        if pattern.steps.is_empty() {
            b.report(Code::BadWindowGeometry, "pattern needs >= 1 step")?;
        }
        if pattern.within <= 0 {
            b.report(Code::BadWindowGeometry, "pattern 'within' must be positive")?;
        }
        let ts_col = input.index_of(ts_field);
        if ts_col.is_none() {
            let msg = format!("cep: unknown ts field '{ts_field}' in schema {input}");
            b.report(Code::MissingTimeField, msg)?;
        }
        let mut steps = Vec::with_capacity(pattern.steps.len());
        for (j, s) in pattern.steps.iter().enumerate() {
            b.at(format_args!("cep/step[{j}]"));
            let (step, t) = s.predicate.bind_with(input, b)?;
            // Strict: a NULL-typed predicate is rejected too.
            if let Some(t) = t.filter(|&t| t != DataType::Bool) {
                let msg = format!("pattern step '{}' predicate must be BOOL, got {t}", s.name);
                b.report(Code::PredicateNotBool, msg)?;
            }
            steps.push(step);
        }
        b.at("cep/key");
        let key_expr = match &pattern.key {
            Some(k) => Some(k.bind_with(input, b)?.0),
            None => None,
        };
        let output = input.extend(vec![
            Field::new("pattern", DataType::Text),
            Field::new("match_start", DataType::Timestamp),
            Field::new("match_end", DataType::Timestamp),
        ]);
        Ok(CepOp {
            pattern_name: pattern.name.clone(),
            automaton: Automaton {
                steps: steps.len(),
                within: pattern.within,
                max_partials: pattern.max_partials,
            },
            steps,
            key_expr,
            // Only a collecting binder gets here without a ts column.
            ts_col: ts_col.unwrap_or(0),
            output,
            state: KeyMap::default(),
        })
    }

    /// The output row of one match: the completing record's values,
    /// then `pattern`, `match_start` and `match_end`.
    fn emit(&self, values: &[Value], first_ts: EventTime, ts: EventTime) -> Record {
        let mut row = Vec::with_capacity(values.len() + 3);
        row.extend_from_slice(values);
        row.push(Value::text(self.pattern_name.clone()));
        row.push(Value::Timestamp(first_ts));
        row.push(Value::Timestamp(ts));
        Record::new(row)
    }

    fn push_matches(&self, emitted: Vec<Record>, out: &mut Vec<StreamMessage>) {
        if !emitted.is_empty() {
            out.push(StreamMessage::Data(RecordBuffer::new(
                self.output.clone(),
                emitted,
            )));
        }
    }
}

impl Automaton {
    /// Advances one key's partials by one record at `ts`; `sat(step)`
    /// says whether the record satisfies step `step`. Returns the
    /// first-event time of every match the record completes.
    fn advance(
        self,
        partials: &mut Vec<Partial>,
        ts: EventTime,
        sat: impl Fn(usize) -> bool,
    ) -> Vec<EventTime> {
        // Expire partials that can no longer complete.
        partials.retain(|p| ts - p.first_ts <= self.within);
        let mut completed = Vec::new();
        // Advance existing partials (each at most one step).
        for p in partials.iter_mut() {
            if sat(p.next_step) {
                p.next_step += 1;
                if p.next_step == self.steps {
                    completed.push(p.first_ts);
                }
            }
        }
        partials.retain(|p| p.next_step < self.steps);
        // Open a new partial (or complete immediately for unary
        // patterns).
        if sat(0) {
            if self.steps == 1 {
                completed.push(ts);
            } else if partials.len() < self.max_partials {
                partials.push(Partial {
                    next_step: 1,
                    first_ts: ts,
                });
            }
        }
        completed
    }
}

impl Operator for CepOp {
    fn name(&self) -> &str {
        "cep"
    }

    fn output_schema(&self) -> SchemaRef {
        self.output.clone()
    }

    fn process(&mut self, buf: RecordBuffer, out: &mut Vec<StreamMessage>) -> Result<()> {
        let mut emitted: Vec<Record> = Vec::new();
        for rec in buf.records() {
            let ts = rec
                .get(self.ts_col)
                .and_then(Value::as_timestamp)
                .ok_or_else(|| NebulaError::Eval("cep: record missing event time".into()))?;
            let (key, _) = GroupKey::evaluate(self.key_expr.as_slice(), rec)?;
            // Evaluate step predicates once per record.
            let mut sat = Vec::with_capacity(self.steps.len());
            for s in &self.steps {
                sat.push(s.eval_predicate(rec)?);
            }
            let partials = self.state.entry(key).or_default();
            for first_ts in self.automaton.advance(partials, ts, |step| sat[step]) {
                let m = self.emit(rec.values(), first_ts, ts);
                emitted.push(m);
            }
        }
        self.push_matches(emitted, out);
        Ok(())
    }

    fn supports_columnar(&self) -> bool {
        true
    }

    /// Step predicates run as masks and the key as per-buffer ids.
    fn columnar_benefit(&self) -> bool {
        true
    }

    /// Matches leave as rows.
    fn propagates_columnar(&self) -> bool {
        false
    }

    /// The steps, the key and the event time, plus the live input
    /// columns a match carries on (the final record's, which lead the
    /// output).
    fn reads(&self, live: &ReadSet, reads: &mut ReadSet) {
        reads.insert(self.ts_col);
        for e in self.steps.iter().chain(&self.key_expr) {
            e.mark_reads(reads);
        }
        live.iter().for_each(|c| reads.insert(c));
    }

    /// The batch kernel: event times come from the typed column, the
    /// key once per buffer as dense ids, each step predicate once as a
    /// mask; partials then advance row by row in arrival order, and a
    /// row materializes only when it completes a match.
    fn process_columnar(&mut self, buf: TupleBuffer, out: &mut Vec<StreamMessage>) -> Result<()> {
        let ts = event_times(&buf, self.ts_col, "cep")?;
        let mut keys = BufferKeys::default();
        keys.evaluate(self.key_expr.as_slice(), &buf, None)?;
        let sat = self
            .steps
            .iter()
            .map(|s| s.eval_mask(&buf))
            .collect::<Result<Vec<_>>>()?;
        // Each distinct key's partials leave the map once per buffer.
        let mut groups: Vec<Vec<Partial>> = (0..keys.len())
            .map(|id| self.state.remove(keys.bytes(id)).unwrap_or_default())
            .collect();
        let mut emitted: Vec<Record> = Vec::new();
        for (row, (&id, &t)) in keys.ids.iter().zip(ts.iter()).enumerate() {
            let partials = &mut groups[id as usize];
            for first_ts in self.automaton.advance(partials, t, |step| sat[step][row]) {
                let m = self.emit(buf.row(row).values(), first_ts, t);
                emitted.push(m);
            }
        }
        for (id, partials) in groups.into_iter().enumerate() {
            self.state.insert(keys.key(id), partials);
        }
        self.push_matches(emitted, out);
        Ok(())
    }

    fn on_watermark(&mut self, wm: EventTime, out: &mut Vec<StreamMessage>) -> Result<()> {
        // Garbage-collect partials that can no longer complete.
        for partials in self.state.values_mut() {
            partials.retain(|p| wm - p.first_ts <= self.automaton.within);
        }
        self.state.retain(|_, v| !v.is_empty());
        out.push(StreamMessage::Watermark(wm));
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        // Open partials: key map entries plus 16 bytes per partial
        // (step index + first timestamp).
        self.state
            .values()
            .map(|partials| 64 + partials.len() * 16)
            .sum()
    }

    fn snapshot(&self) -> Result<Box<dyn Operator>> {
        Ok(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::schema::Schema;
    use crate::value::MICROS_PER_SEC;

    fn schema() -> SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("train", DataType::Int),
            ("v", DataType::Float),
        ])
    }

    fn rec(ts_s: i64, train: i64, v: f64) -> Record {
        Record::new(vec![
            Value::Timestamp(ts_s * MICROS_PER_SEC),
            Value::Int(train),
            Value::Float(v),
        ])
    }

    fn run(op: &mut CepOp, rows: Vec<Record>) -> Vec<Record> {
        let mut out = Vec::new();
        op.process(RecordBuffer::new(schema(), rows), &mut out)
            .unwrap();
        out.iter()
            .filter_map(|m| match m {
                StreamMessage::Data(b) => Some(b.records().to_vec()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    fn high_low_pattern(within_s: i64) -> Pattern {
        Pattern::new(
            "spike-then-drop",
            vec![
                PatternStep::new("high", col("v").gt(lit(10.0))),
                PatternStep::new("low", col("v").lt(lit(1.0))),
            ],
            within_s * MICROS_PER_SEC,
        )
        .keyed_by(col("train"))
    }

    #[test]
    fn detects_two_step_sequence() {
        let reg = FunctionRegistry::with_builtins();
        let mut op = CepOp::new(&high_low_pattern(60), "ts", &schema(), &reg).unwrap();
        let got = run(
            &mut op,
            vec![rec(1, 1, 20.0), rec(2, 1, 5.0), rec(3, 1, 0.5)],
        );
        assert_eq!(got.len(), 1);
        let r = &got[0];
        assert_eq!(r.get(3), Some(&Value::text("spike-then-drop")));
        assert_eq!(r.get(4), Some(&Value::Timestamp(MICROS_PER_SEC)));
        assert_eq!(r.get(5), Some(&Value::Timestamp(3 * MICROS_PER_SEC)));
    }

    #[test]
    fn skip_till_next_match_ignores_noise() {
        let reg = FunctionRegistry::with_builtins();
        let mut op = CepOp::new(&high_low_pattern(60), "ts", &schema(), &reg).unwrap();
        // Noise (v=5) records between the high and the low don't kill it.
        let got = run(
            &mut op,
            vec![
                rec(1, 1, 20.0),
                rec(2, 1, 5.0),
                rec(3, 1, 5.0),
                rec(4, 1, 0.2),
            ],
        );
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn within_bound_expires_partials() {
        let reg = FunctionRegistry::with_builtins();
        let mut op = CepOp::new(&high_low_pattern(10), "ts", &schema(), &reg).unwrap();
        let got = run(&mut op, vec![rec(1, 1, 20.0), rec(100, 1, 0.5)]);
        assert!(got.is_empty(), "low arrived past the within bound");
    }

    #[test]
    fn keys_partition_matching() {
        let reg = FunctionRegistry::with_builtins();
        let mut op = CepOp::new(&high_low_pattern(60), "ts", &schema(), &reg).unwrap();
        // High on train 1, low on train 2: no match.
        let got = run(&mut op, vec![rec(1, 1, 20.0), rec(2, 2, 0.5)]);
        assert!(got.is_empty());
        // Completing per key works independently.
        let got = run(&mut op, vec![rec(3, 2, 30.0), rec(4, 2, 0.1)]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].get(1), Some(&Value::Int(2)));
    }

    #[test]
    fn unary_pattern_matches_each_record() {
        let reg = FunctionRegistry::with_builtins();
        let p = Pattern::new(
            "over-limit",
            vec![PatternStep::new("hot", col("v").gt(lit(10.0)))],
            MICROS_PER_SEC,
        );
        let mut op = CepOp::new(&p, "ts", &schema(), &reg).unwrap();
        let got = run(
            &mut op,
            vec![rec(1, 1, 20.0), rec(2, 1, 5.0), rec(3, 1, 30.0)],
        );
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn three_step_sequence_and_overlapping_partials() {
        let reg = FunctionRegistry::with_builtins();
        let p = Pattern::new(
            "ramp",
            vec![
                PatternStep::new("a", col("v").ge(lit(1.0)).and(col("v").lt(lit(2.0)))),
                PatternStep::new("b", col("v").ge(lit(2.0)).and(col("v").lt(lit(3.0)))),
                PatternStep::new("c", col("v").ge(lit(3.0))),
            ],
            60 * MICROS_PER_SEC,
        );
        let mut op = CepOp::new(&p, "ts", &schema(), &reg).unwrap();
        let got = run(
            &mut op,
            vec![
                rec(1, 1, 1.5),
                rec(2, 1, 1.5), // second partial opens
                rec(3, 1, 2.5), // both advance? no: each record advances each partial once
                rec(4, 1, 3.5),
            ],
        );
        // Partial 1: a@1, b@3, c@4 => match. Partial 2: a@2, b@3? A record
        // can advance multiple *different* partials: partial2 also takes
        // b@3 then c@4.
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn watermark_gc_and_cap() {
        let reg = FunctionRegistry::with_builtins();
        let p = high_low_pattern(10).with_max_partials(2);
        let mut op = CepOp::new(&p, "ts", &schema(), &reg).unwrap();
        // 5 highs but cap 2 partials.
        let rows: Vec<Record> = (0..5).map(|i| rec(i, 1, 20.0)).collect();
        run(&mut op, rows);
        let mut out = Vec::new();
        op.on_watermark(1_000 * MICROS_PER_SEC, &mut out).unwrap();
        assert!(op.state.is_empty(), "expired partials collected");
    }

    #[test]
    fn rejects_bad_patterns() {
        let reg = FunctionRegistry::with_builtins();
        let empty = Pattern::new("x", vec![], MICROS_PER_SEC);
        assert!(CepOp::new(&empty, "ts", &schema(), &reg).is_err());
        let nonbool = Pattern::new(
            "x",
            vec![PatternStep::new("s", col("v").add(lit(1.0)))],
            MICROS_PER_SEC,
        );
        assert!(CepOp::new(&nonbool, "ts", &schema(), &reg).is_err());
        let badwithin = Pattern::new("x", vec![PatternStep::new("s", col("v").gt(lit(1.0)))], 0);
        assert!(CepOp::new(&badwithin, "ts", &schema(), &reg).is_err());
    }
}
