//! The plan catalog: every plan shape the suites run, once, with the
//! feeds it runs on and the rows (tests) that own its cells.

use super::matrix::Config;
use super::*;
use Feed::{FleetWithNulls, InOrder, Jittered, JitteredTwoPolls};

/// Where a cell runs, for row ownership.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Slot {
    /// Local entries at the feed's default config.
    Local,
    /// Local entries over the batch-size × columnar-mode sweep.
    LocalSweep,
    Placed,
    PlacedSweep,
    /// `Resilient` and `PlacedChaos`.
    Faults,
}

/// Builds a plan's query.
pub type QueryFn = fn() -> Query;

pub struct Plan {
    pub name: &'static str,
    pub query: QueryFn,
    pub watermark: fn() -> WatermarkStrategy,
    /// Feeds of its default cells on every local and placed entry.
    pub feeds: &'static [Feed],
    /// Feeds of its batch-size × columnar-mode sweep on every local and
    /// placed entry.
    pub sweep: &'static [Feed],
    /// Results depend on arrival order (CEP, threshold windows, float
    /// sums, `first`/`last` ties): a jittered sweep compares each batch
    /// size with its own reference.
    pub order_sensitive: bool,
    /// Under `EdgeFirst` its window splits into edge partials and a
    /// cloud merge.
    pub splits: bool,
    /// Every run fails, with the same typed error as the reference.
    pub fails: bool,
    /// `run` delivers no row on its feed, so its cells compare empty
    /// outputs.
    pub empty: bool,
    /// `run_partitioned` merges one step's output of several owners in
    /// window-emission order, which is not `run`'s arrival order for
    /// CEP matches: its partitioned default cells compare
    /// order-normalized rows.
    pub reorders_across_partitions: bool,
    /// The rows that own its cells, per slot; an unnamed slot belongs to
    /// the slot's catch-all row.
    pub rows: Vec<(Slot, &'static str)>,
}

fn plan(name: &'static str, query: QueryFn) -> Plan {
    Plan {
        name,
        query,
        watermark: || WatermarkStrategy::None,
        feeds: &[],
        sweep: &[],
        order_sensitive: false,
        splits: false,
        fails: false,
        empty: false,
        reorders_across_partitions: false,
        rows: Vec::new(),
    }
}

impl Plan {
    fn wm(self, watermark: fn() -> WatermarkStrategy) -> Self {
        Plan { watermark, ..self }
    }

    fn feeds(self, feeds: &'static [Feed]) -> Self {
        Plan { feeds, ..self }
    }

    fn sweep(self, sweep: &'static [Feed]) -> Self {
        Plan { sweep, ..self }
    }

    fn order_sensitive(self) -> Self {
        Plan {
            order_sensitive: true,
            ..self
        }
    }

    fn splits(self) -> Self {
        Plan {
            splits: true,
            ..self
        }
    }

    fn fails(self) -> Self {
        Plan {
            fails: true,
            ..self
        }
    }

    fn reorders_across_partitions(self) -> Self {
        Plan {
            reorders_across_partitions: true,
            ..self
        }
    }

    fn row(mut self, slot: Slot, test: &'static str) -> Self {
        self.rows.push((slot, test));
        self
    }

    pub fn owner(&self, slot: Slot) -> Option<&'static str> {
        self.rows.iter().find(|(s, _)| *s == slot).map(|(_, t)| *t)
    }

    /// The feed of its fault and crash cells.
    pub fn home_feed(&self) -> Feed {
        *self.feeds.first().or(self.sweep.first()).expect("a feed")
    }

    /// Its sweep on `feed`: every batch size × `Off` / `Force` / `Auto`,
    /// or `Off` and `Force` at the default batch size for a failing
    /// plan.
    pub fn sweep_configs(&self, feed: Feed) -> Vec<Config> {
        if self.fails {
            return [ColumnarMode::Off, ColumnarMode::Force]
                .map(|columnar| Config {
                    batch: feed.batch(),
                    columnar,
                })
                .to_vec();
        }
        let mut configs = Vec::new();
        for &batch in feed.sweep_batches() {
            for columnar in [ColumnarMode::Off, ColumnarMode::Force, ColumnarMode::Auto] {
                configs.push(Config { batch, columnar });
            }
        }
        configs
    }
}

fn s() -> Query {
    Query::from("s")
}

fn fleet_stream() -> Query {
    Query::from(nebulameos::FLEET_STREAM)
}

fn by_train() -> Vec<(&'static str, Expr)> {
    vec![("train", col("train"))]
}

fn tumbling(secs: i64) -> WindowSpec {
    WindowSpec::Tumbling {
        size: secs * MICROS_PER_SEC,
    }
}

fn agg(name: &str, spec: AggSpec) -> WindowAgg {
    WindowAgg::new(name, spec)
}

fn count() -> WindowAgg {
    agg("n", AggSpec::Count)
}

/// The per-train one-minute window whose aggregates all split into
/// edge partials.
pub fn splittable_window_query() -> Query {
    s().window(
        by_train(),
        tumbling(60),
        vec![
            count(),
            agg("sum_load", AggSpec::Sum(col("load"))),
            agg("min_speed", AggSpec::Min(col("speed"))),
            agg("max_speed", AggSpec::Max(col("speed"))),
        ],
    )
}

/// Accelerate (>60) then drop (<10) within two minutes, per train.
fn speed_drop() -> Pattern {
    Pattern::new(
        "speed-drop",
        vec![
            PatternStep::new("fast", col("speed").gt(lit(60.0))),
            PatternStep::new("slow", col("speed").lt(lit(10.0))),
        ],
        120 * MICROS_PER_SEC,
    )
    .keyed_by(col("train"))
}

/// Q5-shaped: two steps, at most one partial per train, and a `within`
/// short enough that most partials expire.
fn q5_shaped(within_s: i64) -> Pattern {
    let stressed = col("speed").gt(lit(60.0)).or(col("load").lt(lit(30)));
    Pattern::new(
        "battery-shaped",
        vec![
            PatternStep::new("stressed", stressed),
            PatternStep::new("critical", col("speed").lt(lit(10.0))),
        ],
        within_s * MICROS_PER_SEC,
    )
    .keyed_by(col("train"))
}

/// `speed > 60 AND fast_or_fail(speed)`: the right operand errors on
/// every row its left side short-circuits.
fn guarded() -> Expr {
    col("speed")
        .gt(lit(60.0))
        .and(call("fast_or_fail", vec![col("speed")]))
}

/// A filter into a map: `load >= 20`, then `kmh`.
pub fn stateless_chain() -> Query {
    s().filter(col("load").ge(lit(20)))
        .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))])
}

/// A CEP stage whose matches are narrowed to four columns: the match
/// carries `pos`, which no step reads, and eight dead fields, which it
/// emits as nulls.
fn cep_projected() -> Query {
    let pattern = Pattern::new(
        "slow-down",
        vec![
            PatternStep::new("fast", col("speed_kmh").gt(lit(100.0))),
            PatternStep::new("slow", col("speed_kmh").lt(lit(50.0))),
        ],
        10 * 60 * MICROS_PER_SEC,
    )
    .keyed_by(col("train_id"));
    fleet_stream().cep(pattern).map(vec![
        ("train_id", col("train_id")),
        ("pos", col("pos")),
        ("match_start", col("match_start")),
        ("match_end", col("match_end")),
    ])
}

/// The benchmark's per-train one-minute tumbling profile.
pub fn fleet_profile() -> Query {
    fleet_stream().window(
        vec![("train", col("train_id"))],
        tumbling(60),
        vec![
            count(),
            agg("avg_speed", AggSpec::Avg(col("speed_kmh"))),
            agg("max_passengers", AggSpec::Max(col("passengers"))),
        ],
    )
}

const ANY_ORDER: &[Feed] = &[InOrder, Jittered(7), Jittered(99)];
const STATEFUL: &[Feed] = &[InOrder, Jittered(7), JitteredTwoPolls(7)];
const READ_SETS: &str = "no_absent_column_reaches_a_sink_in_any_mode";

/// Every plan shape, once.
pub fn catalog() -> Vec<Plan> {
    use Slot::*;
    let generous = generous_watermark;
    let demo = || bounded(5);
    let mut plans = vec![
        plan("filter", || s().filter(col("speed").ge(lit(40.0))))
            .feeds(ANY_ORDER)
            .sweep(&[InOrder, Jittered(7), JitteredTwoPolls(7)])
            .row(Local, "filter_equivalence")
            .row(LocalSweep, "batched_filter_matrix")
            .row(Placed, "filter_cluster_equivalence")
            .row(Faults, "q1_filter_chaos_equivalence"),
        plan("map", || {
            s().map(vec![
                ("train", col("train")),
                ("kmh", col("speed").mul(lit(3.6))),
            ])
        })
        .feeds(ANY_ORDER)
        .sweep(&[InOrder, Jittered(99)])
        .row(Local, "map_equivalence")
        .row(LocalSweep, "batched_map_matrix")
        .row(Placed, "map_cluster_equivalence")
        .row(Faults, "q2_map_chaos_equivalence"),
        // Filter shrinks buffers in place; the map after it must see the
        // compacted columns, not the original row indexes.
        plan("map_extend", || {
            s().filter(col("load").gt(lit(50)))
                .map_extend(vec![("over", col("speed").sub(lit(40.0)))])
        })
        .feeds(ANY_ORDER)
        .sweep(&[InOrder, Jittered(7)])
        .row(Local, "map_extend_equivalence")
        .row(LocalSweep, "batched_filter_map_matrix")
        .row(Placed, "map_extend_cluster_equivalence")
        .row(PlacedSweep, "batched_stateless_cluster_equivalence")
        .row(Faults, "q3_filter_map_extend_chaos_equivalence"),
        plan("stateless", stateless_chain)
            .feeds(&[InOrder])
            .sweep(&[InOrder])
            .row(Local, "conservation_stateless_chain_all_modes")
            .row(LocalSweep, "auto_mode_matches_forced_paths"),
        // Jitter far wider than a 4 s slack: genuine late drops.
        plan("late-drops", || {
            s().window(by_train(), tumbling(30), vec![count()])
        })
        .wm(|| bounded(4))
        .feeds(&[Feed::Wild])
        .splits()
        .row(Local, "conservation_accounts_late_drops"),
        // Avg decomposes into a (sum, count) partial, so this splits too.
        plan("tumbling", tumbling_avg)
            .wm(generous)
            .feeds(ANY_ORDER)
            .sweep(&[InOrder])
            .splits()
            .row(Local, "tumbling_window_equivalence")
            .row(LocalSweep, "batched_tumbling_window_matrix")
            .row(Placed, "tumbling_window_cluster_equivalence"),
        plan("tumbling/no-wm", tumbling_avg)
            .feeds(&[InOrder])
            .splits()
            .row(Local, "tumbling_window_equivalence")
            .row(Placed, "tumbling_window_cluster_equivalence"),
        // Jittered arrival order varies with the batch size and float
        // Avg is not associative, so the jittered sweep sticks to
        // order-independent aggregates for exact equality.
        plan("tumbling/exact", || {
            s().window(
                by_train(),
                tumbling(60),
                vec![
                    count(),
                    agg("min_speed", AggSpec::Min(col("speed"))),
                    agg("max_load", AggSpec::Max(col("load"))),
                    agg("sum_load", AggSpec::Sum(col("load"))),
                ],
            )
        })
        .wm(generous)
        .sweep(&[Jittered(7)])
        .splits()
        .row(LocalSweep, "batched_tumbling_window_matrix"),
        plan("splittable", splittable_window_query)
            .wm(generous)
            .feeds(ANY_ORDER)
            .sweep(&[InOrder, Jittered(99)])
            .splits()
            .row(Placed, "splittable_window_cluster_equivalence")
            .row(PlacedSweep, "batched_splittable_window_cluster_equivalence")
            .row(Faults, "q4_splittable_window_chaos_equivalence"),
        plan("splittable/no-wm", splittable_window_query)
            .feeds(&[InOrder])
            .splits()
            .row(Placed, "splittable_window_cluster_equivalence"),
        // The custom aggregate keeps `splittable()` false: the window
        // runs whole at its placed node.
        plan("unsplittable", || {
            s().window(
                by_train(),
                tumbling(60),
                vec![agg("n", AggSpec::Custom(Arc::new(OpaqueCountAgg)))],
            )
        })
        .wm(generous)
        .feeds(&[InOrder])
        .row(Placed, "unsplittable_custom_window_cluster_equivalence"),
        plan("sliding", || {
            s().window(by_train(), sliding(60, 20), vec![count()])
        })
        .wm(generous)
        .feeds(ANY_ORDER)
        .splits()
        .row(Local, "sliding_window_equivalence")
        .row(Placed, "sliding_window_cluster_equivalence")
        .row(Faults, "q5_sliding_window_chaos_equivalence"),
        plan("sliding/first-last", || {
            s().window(
                by_train(),
                sliding(60, 20),
                vec![
                    count(),
                    agg("first_speed", AggSpec::First(col("speed"))),
                    agg("last_load", AggSpec::Last(col("load"))),
                ],
            )
        })
        .wm(generous)
        .sweep(&[InOrder, Jittered(99)])
        .splits()
        .row(LocalSweep, "batched_sliding_window_matrix"),
        // Keyless windows exercise the Single-routing fallback: sharding
        // them would emit one row per partition instead of one per
        // window.
        plan("keyless", || {
            s().window(vec![], tumbling(60), vec![count()])
        })
        .wm(generous)
        .feeds(ANY_ORDER)
        .sweep(&[InOrder])
        .splits()
        .row(Local, "keyless_window_equivalence")
        .row(LocalSweep, "batched_keyless_window_matrix")
        .row(Placed, "keyless_window_cluster_equivalence")
        .row(Faults, "q6_keyless_window_chaos_equivalence"),
        // Threshold windows are order-sensitive per key, but keyed
        // routing preserves per-key order, so in-order feeds agree.
        plan("threshold", || {
            s().window(
                by_train(),
                WindowSpec::Threshold {
                    predicate: col("speed").gt(lit(30.0)),
                    min_count: 2,
                },
                vec![count(), agg("peak", AggSpec::Max(col("speed")))],
            )
        })
        .feeds(&[InOrder])
        .sweep(&[InOrder])
        .row(Local, "threshold_window_equivalence")
        .row(LocalSweep, "batched_threshold_window_matrix")
        .row(Placed, "threshold_window_cluster_equivalence")
        .row(Faults, "q7_threshold_window_chaos_equivalence"),
        // Keyed routing keeps each train's history intact.
        plan("cep", || s().cep(speed_drop()))
            .feeds(&[InOrder])
            .reorders_across_partitions()
            .sweep(&[InOrder])
            .row(Local, "cep_equivalence")
            .row(LocalSweep, "batched_cep_matrix")
            .row(Placed, "cep_cluster_equivalence")
            .row(Faults, "q8_cep_chaos_equivalence"),
        // The keyed CEP suggests key routing, but the keyless window
        // downstream must force Single routing or partitions would each
        // emit their own count rows.
        plan("cep+keyless", || {
            s().cep(speed_drop())
                .window(vec![], tumbling(60), vec![count()])
        })
        .feeds(&[InOrder])
        .row(Local, "keyed_cep_then_keyless_window_equivalence")
        .row(Placed, "cep_then_keyless_window_cluster_equivalence"),
        plan("plugin", || s().apply(Arc::new(DuplicateHighSpeed)))
            .feeds(ANY_ORDER)
            .sweep(&[InOrder, Jittered(7)])
            .row(Local, "plugin_operator_equivalence")
            .row(LocalSweep, "batched_plugin_matrix")
            .row(Placed, "plugin_operator_cluster_equivalence"),
        // The common fleet-analytics shape: filter, derive, keyed window
        // — partition-key extraction must see through the safe prefix.
        plan("composite", || {
            composite(vec![agg("avg_kmh", AggSpec::Avg(col("kmh")))])
        })
        .wm(generous)
        .feeds(ANY_ORDER)
        .sweep(&[InOrder])
        .splits()
        .row(Local, "composite_pipeline_equivalence")
        .row(LocalSweep, "batched_composite_matrix"),
        // Order-independent aggregates, for the jittered sweep.
        plan("composite/exact", || {
            composite(vec![
                agg("max_kmh", AggSpec::Max(col("kmh"))),
                agg("sum_load", AggSpec::Sum(col("load"))),
            ])
        })
        .wm(generous)
        .feeds(ANY_ORDER)
        .sweep(&[Jittered(99)])
        .splits()
        .row(LocalSweep, "batched_composite_matrix")
        .row(Placed, "composite_pipeline_cluster_equivalence"),
        // Under `CloudOnly` the whole chain is the cloud tail fed by
        // decoded frames. Q1's shape: computed flags and a plugin call,
        // a filter on them, then a text-valued `if`.
        plan("q1-shaped", || {
            s().map_extend(vec![
                ("fast", col("speed").gt(lit(60.0))),
                ("heavy", call("heavy_load", vec![col("load")])),
            ])
            .filter(col("fast").or(col("heavy")))
            .map_extend(vec![(
                "alert",
                call("if", vec![col("heavy"), lit("load"), lit("speed")]),
            )])
        })
        .sweep(&[InOrder, Jittered(7)])
        .row(PlacedSweep, "batched_cloud_tail_cluster_equivalence"),
        // Q2's shape: a plugin-call filter ahead of a tumbling window.
        plan("q2-shaped", || {
            s().filter(call("heavy_load", vec![col("load")])).window(
                by_train(),
                tumbling(60),
                vec![count(), agg("peak", AggSpec::Max(col("speed")))],
            )
        })
        .wm(generous)
        .sweep(&[InOrder, Jittered(99)])
        .splits()
        .row(PlacedSweep, "batched_cloud_tail_cluster_equivalence"),
        // A right operand that errors only on rows its left side
        // short-circuits surfaces on neither path.
        plan("guarded-cep", || {
            s().cep(
                Pattern::new(
                    "guarded",
                    vec![
                        PatternStep::new("fast", guarded()),
                        PatternStep::new("slow", col("speed").lt(lit(10.0))),
                    ],
                    120 * MICROS_PER_SEC,
                )
                .keyed_by(col("train")),
            )
        })
        .sweep(&[InOrder])
        .row(LocalSweep, "stateful_errors_match_across_paths"),
        plan("guarded-threshold", || {
            s().window(
                by_train(),
                WindowSpec::Threshold {
                    predicate: guarded(),
                    min_count: 1,
                },
                vec![count()],
            )
        })
        .sweep(&[InOrder])
        .row(LocalSweep, "stateful_errors_match_across_paths"),
    ];
    plans.extend(stateful());
    plans.extend(fleet_with_nulls());
    // The paper's queries over the demo fleet: no absent column reaches
    // a sink, and every path equals the row path. Q6 and Q7 lower their
    // thresholds so that thirty minutes of fleet data yield episodes.
    let paper: [(&str, QueryFn); 10] = [
        ("Q1", || nebulameos::q1_alert_filtering(160.0)),
        ("Q2", || nebulameos::q2_noise_monitoring(80.0)),
        ("Q3", nebulameos::q3_dynamic_speed_limit),
        ("Q4", || nebulameos::q4_weather_speed_zones(160.0)),
        ("Q5", nebulameos::q5_battery_monitoring),
        ("Q6", || nebulameos::q6_heavy_load(150, 3)),
        ("Q7", || nebulameos::q7_unscheduled_stops(3)),
        ("Q8", || nebulameos::q8_brake_monitoring(30)),
        ("fleet_profile", fleet_profile),
        ("cep_projected", cep_projected),
    ];
    for (name, query) in paper {
        let mut p = plan(name, query)
            .wm(demo)
            .sweep(&[Feed::Fleet])
            .row(LocalSweep, READ_SETS)
            .row(PlacedSweep, READ_SETS);
        // Thirty demo minutes hold no battery or brake episode.
        p.empty = matches!(name, "Q5" | "Q8");
        p.splits = matches!(name, "Q2" | "fleet_profile");
        plans.push(p);
    }
    plans
}

fn sliding(size_s: i64, slide_s: i64) -> WindowSpec {
    WindowSpec::Sliding {
        size: size_s * MICROS_PER_SEC,
        slide: slide_s * MICROS_PER_SEC,
    }
}

fn tumbling_avg() -> Query {
    s().window(
        by_train(),
        tumbling(60),
        vec![
            count(),
            agg("avg_speed", AggSpec::Avg(col("speed"))),
            agg("max_load", AggSpec::Max(col("load"))),
        ],
    )
}

/// `load >= 20`, `kmh`, then a per-train two-minute window of `n` and
/// `aggs`.
pub fn composite(aggs: Vec<WindowAgg>) -> Query {
    let mut all = vec![count()];
    all.extend(aggs);
    s().filter(col("load").ge(lit(20)))
        .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))])
        .window(by_train(), tumbling(120), all)
}

/// Order-sensitive operators in order and jittered, within 8 records
/// and within two polls.
fn stateful() -> Vec<Plan> {
    use Slot::LocalSweep;
    let generous = generous_watermark;
    let stateful = |name, query| plan(name, query).sweep(STATEFUL).order_sensitive();
    vec![
        stateful("cep/q5-shaped", || {
            s().cep(q5_shaped(20).with_max_partials(1))
        })
        .row(LocalSweep, "stateful_cep_matrix"),
        // Uncapped: overlapping partials complete on one record.
        stateful("cep/q5-uncapped", || s().cep(q5_shaped(60)))
            .wm(generous)
            .row(LocalSweep, "stateful_cep_matrix"),
        // Keyless: one automaton over the whole stream.
        stateful("cep/keyless", || {
            let mut keyless = q5_shaped(20);
            keyless.key = None;
            s().cep(keyless)
        })
        .row(LocalSweep, "stateful_cep_matrix"),
        // Q8-shaped: five alternating steps, one partial, expiring.
        stateful("cep/q8-shaped", || {
            let low = || col("speed").lt(lit(10.0)).or(col("load").gt(lit(190)));
            let recovered = || col("speed").gt(lit(60.0));
            s().cep(
                Pattern::new(
                    "brakes-shaped",
                    vec![
                        PatternStep::new("e1", low()),
                        PatternStep::new("r1", recovered()),
                        PatternStep::new("e2", low()),
                        PatternStep::new("r2", recovered()),
                        PatternStep::new("e3", low()),
                    ],
                    70 * MICROS_PER_SEC,
                )
                .keyed_by(col("train"))
                .with_max_partials(1),
            )
        })
        .wm(generous)
        .row(LocalSweep, "stateful_cep_matrix"),
        // Q6-shaped: at end of stream trains 3 and 4 hold an open window
        // of two records (flushed, `min_count` 2) and trains 0-2 one of
        // one (dropped).
        stateful("threshold/q6-shaped", || {
            s().window(
                by_train(),
                WindowSpec::Threshold {
                    predicate: col("load").ge(lit(100)),
                    min_count: 2,
                },
                vec![
                    agg("peak", AggSpec::Max(col("load"))),
                    agg("avg", AggSpec::Avg(col("load"))),
                    agg("ticks", AggSpec::Count),
                    agg("at", AggSpec::Last(col("speed"))),
                ],
            )
        })
        .row(LocalSweep, "stateful_threshold_matrix"),
        // Q7-shaped: `And(And(Lt, Not(Call)), Not(Call))` — the calls
        // run only on rows the comparison lets through.
        stateful("threshold/q7-shaped", || {
            let flag = |cond: Expr| call("if", vec![cond, lit(true), lit(false)]);
            s().window(
                by_train(),
                WindowSpec::Threshold {
                    predicate: col("speed")
                        .lt(lit(40.0))
                        .and(flag(col("load").gt(lit(150))).not())
                        .and(flag(col("train").eq(lit(3))).not()),
                    min_count: 2,
                },
                vec![
                    agg("stop_speed", AggSpec::First(col("speed"))),
                    agg("ticks", AggSpec::Count),
                ],
            )
        })
        .wm(generous)
        .row(LocalSweep, "stateful_threshold_matrix"),
        // `sliding_profile`-shaped: 64 s sliding by 4 s, 16 windows per
        // record, float averages.
        stateful("sliding/profile-shaped", || {
            s().window(
                by_train(),
                sliding(64, 4),
                vec![
                    count(),
                    agg("avg_speed", AggSpec::Avg(col("speed"))),
                    agg("max_load", AggSpec::Max(col("load"))),
                ],
            )
        })
        .wm(generous)
        .splits()
        .row(LocalSweep, "stateful_time_window_matrix"),
        // Event time on `load` ((13 i) mod 200): every (train, load)
        // pair occurs three times, so `first`/`last` meet equal
        // timestamps; an integer `sum`; `min`/`max` over a column with
        // NaN rows.
        stateful("tumbling/ties-nan-int", || {
            s().map_extend(vec![(
                "nan_speed",
                call(
                    "if",
                    vec![col("load").gt(lit(150)), lit(f64::NAN), col("speed")],
                ),
            )])
            .window(
                by_train(),
                WindowSpec::Tumbling { size: 50 },
                vec![
                    agg("sum_load", AggSpec::Sum(col("load"))),
                    agg("min_nan", AggSpec::Min(col("nan_speed"))),
                    agg("max_nan", AggSpec::Max(col("nan_speed"))),
                    agg("first", AggSpec::First(col("speed"))),
                    agg("last", AggSpec::Last(col("ts"))),
                ],
            )
            .with_ts_field("load")
        })
        .splits()
        .row(LocalSweep, "stateful_time_window_matrix"),
    ]
}

/// The fleet stream with nulls in `ts`, `pos` and `speed_kmh`: the
/// schema-typed transposition through the three geofencing chains, and
/// the typed error of a null event time in CEP, threshold and time
/// windows.
fn fleet_with_nulls() -> Vec<Plan> {
    use Slot::LocalSweep;
    let nulls = |name, query| plan(name, query).sweep(&[FleetWithNulls]);
    vec![
        nulls("nulls/q1", || nebulameos::q1_alert_filtering(120.0))
            .wm(|| bounded(5))
            .row(LocalSweep, "batched_fleet_nulls_matrix"),
        nulls("nulls/q3", nebulameos::q3_dynamic_speed_limit)
            .wm(|| bounded(5))
            .row(LocalSweep, "batched_fleet_nulls_matrix"),
        nulls("nulls/q4", || nebulameos::q4_weather_speed_zones(120.0))
            .wm(|| bounded(5))
            .row(LocalSweep, "batched_fleet_nulls_matrix"),
        nulls("nulls/q6", || nebulameos::q6_heavy_load(300, 3))
            .fails()
            .row(LocalSweep, "stateful_errors_match_across_paths"),
        nulls("nulls/q8", || nebulameos::q8_brake_monitoring(30))
            .fails()
            .row(LocalSweep, "stateful_errors_match_across_paths"),
        nulls("nulls/window", || {
            fleet_stream().window(
                vec![("train", col("train_id"))],
                tumbling(60),
                vec![count()],
            )
        })
        .fails()
        .row(LocalSweep, "stateful_errors_match_across_paths"),
    ]
}
