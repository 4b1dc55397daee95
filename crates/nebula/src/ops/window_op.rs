//! The keyed window-aggregation operator, evaluated by stream slicing.
//!
//! Time windows (tumbling/sliding) never keep one accumulator per
//! (key, window): event time partitions into non-overlapping slices of
//! `gcd(size, slide)` µs (see [`crate::window::SliceLayout`]) and every
//! record folds into exactly one slice per key — O(1) amortized work per
//! record regardless of how many windows overlap. A closed window
//! materializes at watermark time by merging the accumulators of the
//! slices it covers, which is sound because merging is part of the core
//! [`crate::window::Aggregator`] contract. Each key's live slices form a
//! ring in slice order whose accumulators are held inline: plain typed
//! state for the built-ins, a boxed aggregator only for a plugin's.
//!
//! The cluster runtime splits a splittable time window across nodes
//! (see [`crate::preagg::split_window`]) by running the same operator in
//! one of two more roles over the same slice state: the edge partial
//! ships one partial row per slice ([`WindowOp::edge_partial`]), and the
//! cloud merge folds those rows back into slices and materializes
//! finished windows ([`WindowOp::cloud_merge`]).
//!
//! Both window kinds have a batch kernel over [`TupleBuffer`]s: keys
//! evaluate once per buffer into dense per-buffer ids (`BufferKeys`),
//! and accumulators fold whole groups of rows at once. Groups keep
//! arrival order, so every accumulator sees exactly the fold sequence
//! of the per-record path.

use super::{event_times, record_sort_key, BufferKeys, GroupKey, KeyMap, Operator};
use crate::analysis::Code;
use crate::buffer::TupleBuffer;
use crate::error::{NebulaError, Result};
use crate::expr::{Binder, BoundExpr, Expr, FunctionRegistry};
use crate::record::{Record, RecordBuffer, StreamMessage};
use crate::schema::{Field, ReadSet, Schema, SchemaRef};
use crate::value::{DataType, EventTime, Value};
use crate::window::{Acc, AggTemplate, SliceLayout, WindowAgg, WindowSpec};
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::mem::size_of;

/// The window's aggregates, bound once, with the input schema and
/// registry a plugin's factory makes accumulators from.
#[derive(Clone)]
struct Aggs {
    templates: Vec<AggTemplate>,
    input: SchemaRef,
    registry: FunctionRegistry,
}

impl Aggs {
    fn len(&self) -> usize {
        self.templates.len()
    }

    fn empty(&self, t: &AggTemplate) -> Result<Acc> {
        t.empty(&self.input, &self.registry)
    }

    /// Refills `accs` with one empty accumulator per aggregate (no
    /// allocation for built-ins once `accs` has the capacity).
    fn reset(&self, accs: &mut Vec<Acc>) -> Result<()> {
        accs.clear();
        for t in &self.templates {
            accs.push(self.empty(t)?);
        }
        Ok(())
    }

    /// A deep copy of `acc`, an accumulator of the aggregate `t`.
    fn copy(&self, t: &AggTemplate, acc: &Acc) -> Result<Acc> {
        t.copy(acc, &self.input, &self.registry)
    }
}

/// A live slice of one key: its start and whether it absorbed anything
/// since the edge last shipped it.
#[derive(Clone, Copy)]
struct SliceHead {
    start: EventTime,
    dirty: bool,
}

/// One key's live slices: a ring in slice order, oldest at the front.
/// Slice `i` of `heads` owns the inline accumulators `accs[j][i]`, one
/// per aggregate `j` — a column per aggregate, so materializing a window
/// walks each aggregate's covering slices contiguously. Only slices that
/// absorbed a record or a partial are in the ring, so a key idle for a
/// while costs nothing for the slices it skipped, and a stray far-future
/// record cannot make the ring span the distance to it. In-order data
/// lands in the newest slice (checked first); anything else is a binary
/// search over the ring's few slices.
struct KeySlices {
    key_values: Vec<Value>,
    heads: VecDeque<SliceHead>,
    accs: Vec<VecDeque<Acc>>,
}

impl KeySlices {
    fn new(key_values: Vec<Value>, aggs: &Aggs) -> Self {
        KeySlices {
            key_values,
            heads: VecDeque::new(),
            accs: aggs.templates.iter().map(|_| VecDeque::new()).collect(),
        }
    }

    /// The ring position of the slice starting at `start`, created empty
    /// on first touch and marked dirty.
    fn slot(&mut self, start: EventTime, aggs: &Aggs) -> Result<usize> {
        let found = match self.heads.back() {
            Some(h) if h.start == start => Ok(self.heads.len() - 1),
            Some(h) if h.start < start => Err(self.heads.len()),
            None => Err(0),
            Some(_) => self.heads.binary_search_by_key(&start, |h| h.start),
        };
        let i = match found {
            Ok(i) => {
                self.heads[i].dirty = true;
                return Ok(i);
            }
            Err(i) => i,
        };
        for (j, t) in aggs.templates.iter().enumerate() {
            match aggs.empty(t) {
                Ok(acc) => self.accs[j].insert(i, acc),
                Err(e) => {
                    for col in &mut self.accs[..j] {
                        col.remove(i);
                    }
                    return Err(e);
                }
            }
        }
        self.heads.insert(i, SliceHead { start, dirty: true });
        Ok(i)
    }
}

/// Finds `bytes`' entry, creating it from `new` (the owned key and its
/// value) only when the key is not in the map yet.
fn key_entry<'a, V>(
    map: &'a mut KeyMap<V>,
    bytes: &[u8],
    new: impl FnOnce() -> (GroupKey, V),
) -> Result<&'a mut V> {
    if !map.contains_key(bytes) {
        let (key, v) = new();
        return Ok(map.entry(key).or_insert(v));
    }
    map.get_mut(bytes)
        .ok_or_else(|| NebulaError::Eval("window: key entry vanished".into()))
}

/// Deterministic emission order: by the row's leading timestamp (window
/// or slice start, right after the `key_count` key columns) then the
/// canonical record encoding — same-start multi-key output must not
/// depend on hash-map iteration order. The window state emits in this
/// order by construction (see [`emission_order`]); the partitioned
/// runtime re-establishes it over the union of several workers' rows.
pub(crate) fn sort_emission(records: &mut [Record], key_count: usize) {
    records.sort_by_cached_key(|r| {
        let start = r.get(key_count).and_then(Value::as_timestamp).unwrap_or(0);
        (start, record_sort_key(r))
    });
}

/// Orders rows tagged with their (start, key bytes) and drops the tags:
/// [`sort_emission`]'s order without building a sort key per row. The
/// two orders agree because one emission never holds two rows of the
/// same (key, start), and a key's bytes are the leading bytes of its
/// row's record encoding ([`GroupKey`]), so the first byte where two
/// rows' encodings differ lies inside their keys.
fn emission_order<K: Borrow<[u8]>>(mut rows: Vec<(EventTime, K, Record)>) -> Vec<Record> {
    rows.sort_unstable_by(|a, b| (a.0, a.1.borrow()).cmp(&(b.0, b.1.borrow())));
    rows.into_iter().map(|(_, _, r)| r).collect()
}

/// The rows of one buffer that fold into one (key, slice).
#[derive(Clone, Copy)]
struct Group {
    /// The slice number (start / width).
    slice: i64,
    /// Rows in the group.
    len: usize,
    /// The key's next group, in order of first appearance.
    next: u32,
}

/// Ends a chain of [`Group`]s.
const NO_GROUP: u32 = u32::MAX;

/// Direct-mapped group slots per key: a buffer of out-of-order rows
/// spreads a key over a few slices, each found without walking the
/// chain.
const GROUP_SLOTS: usize = 8;

/// Buffers the batch kernel reuses from one buffer to the next.
#[derive(Default)]
struct Scratch {
    live: Vec<bool>,
    /// Each live row's slice number (slice start / width).
    slices: Vec<i64>,
    /// Each live row's group.
    gids: Vec<u32>,
    groups: Vec<Group>,
    /// Per key id, its first and its latest group, and its groups by
    /// slice number modulo [`GROUP_SLOTS`] (a miss walks the chain).
    key_groups: Vec<(u32, u32, [u32; GROUP_SLOTS])>,
    /// Per group, where its rows begin in `rows` (then, once filled,
    /// where they end).
    starts: Vec<usize>,
    rows: Vec<u32>,
    /// One window's accumulators while it materializes.
    window: Vec<Acc>,
    /// A partial row's key, encoded.
    key: Vec<u8>,
}

/// Shared slice state machine: per-(key, slice) accumulators plus the
/// window bookkeeping all three [`Role`]s of a time window need.
struct SliceStore {
    layout: SliceLayout,
    /// Leading key-column count of emitted rows.
    key_count: usize,
    aggs: Aggs,
    keys: KeyMap<KeySlices>,
    /// The earliest start of a dirty slice: the edge role's flush has
    /// work once the first window over it closes (`first_close` grows
    /// with the slice start).
    min_dirty: EventTime,
    scratch: Scratch,
}

impl SliceStore {
    fn new(layout: SliceLayout, key_count: usize, aggs: Aggs) -> Self {
        SliceStore {
            layout,
            key_count,
            aggs,
            keys: KeyMap::default(),
            min_dirty: EventTime::MAX,
            scratch: Scratch::default(),
        }
    }

    /// Bytes of live slice state as the layout holds it: per key its map
    /// entry, key bytes and key values; per live slice its head and its
    /// inline accumulators. Lengths, not capacities; a plugin
    /// accumulator counts its inline box, not what the box points to. A
    /// telemetry gauge, O(keys).
    fn est_state_bytes(&self) -> usize {
        self.keys
            .iter()
            .map(|(key, ks)| {
                size_of::<(GroupKey, KeySlices)>()
                    + key.bytes().len()
                    + ks.key_values.len() * size_of::<Value>()
                    + ks.accs.len() * size_of::<VecDeque<Acc>>()
                    + ks.heads.len() * (size_of::<SliceHead>() + ks.accs.len() * size_of::<Acc>())
            })
            .sum()
    }

    /// True when the watermark's advance from `prev` to `wm` changes
    /// nothing: no window ends in `(prev, wm]` — windows close and
    /// slices retire only at window ends — and, for the edge role, no
    /// dirty slice has come due.
    fn quiet(&self, role: Role, prev: EventTime, wm: EventTime) -> bool {
        let due = self.min_dirty != EventTime::MAX && self.layout.first_close(self.min_dirty) <= wm;
        !self.layout.ends_in(prev, wm) && (role != Role::Partial || !due)
    }

    /// Triages one record by event time — THE late-record policy, shared
    /// by the whole window and the edge partial so the two roles cannot
    /// diverge. A record in a `slide > size` coverage gap belongs to no
    /// window and is ignored; a record whose every window has closed is
    /// **late** (returns `true`, counted once by the caller); otherwise
    /// it folds into its slice, where still-open windows will pick it up.
    fn absorb(
        &mut self,
        key_exprs: &[BoundExpr],
        rec: &Record,
        ts: EventTime,
        last_watermark: EventTime,
    ) -> Result<bool> {
        match self.layout.latest_close(ts) {
            None => Ok(false),
            Some(close) if close <= last_watermark => Ok(true),
            Some(_) => {
                let (key, key_values) = GroupKey::evaluate(key_exprs, rec)?;
                let start = self.layout.slice_of(ts);
                let aggs = &self.aggs;
                let ks = self
                    .keys
                    .entry(key)
                    .or_insert_with(|| KeySlices::new(key_values, aggs));
                let i = ks.slot(start, aggs)?;
                for (t, col) in aggs.templates.iter().zip(&mut ks.accs) {
                    t.update(&mut col[i], rec)?;
                }
                self.min_dirty = self.min_dirty.min(start);
                Ok(false)
            }
        }
    }

    /// The batch kernel of [`SliceStore::absorb`] over a whole buffer
    /// (`ts` holds every row's event time); returns the count of late
    /// rows. Triage is one comparison per row against the watermark,
    /// which is fixed within a buffer. Keys evaluate only for live rows,
    /// so a key expression that errors on a late row stays silent, as
    /// on the row path. Live rows then group *stably* by (key, slice) in
    /// one pass — a key's few groups of the buffer are a short chain,
    /// its latest group checked first — and each group folds through one
    /// `update_rows` call per aggregate: every accumulator sees its rows
    /// in arrival order, so float sums and `first`/`last` ties come out
    /// bit-identical to the row path. Each distinct key probes the key
    /// map once by its bytes; only a key new to the store is copied into
    /// it.
    fn absorb_buffer(
        &mut self,
        key_exprs: &[BoundExpr],
        buf: &TupleBuffer,
        ts: &[EventTime],
        last_watermark: EventTime,
        keys: &mut BufferKeys,
    ) -> Result<u64> {
        let Scratch {
            live,
            slices,
            gids,
            groups,
            key_groups,
            starts,
            rows,
            ..
        } = &mut self.scratch;
        let mut late = 0;
        live.clear();
        live.resize(ts.len(), false);
        slices.clear();
        slices.resize(ts.len(), 0);
        // Neighbouring rows mostly share a slice: its bounds and its last
        // window's end are computed once per run of rows, not per row.
        // The latest window containing `t` ends at its slice's
        // `last_close`, unless `t` lies in a `slide > size` gap.
        let layout = self.layout;
        let (mut lo, mut hi, mut close, mut no) = (EventTime::MAX, EventTime::MIN, 0, 0);
        for (row, &t) in ts.iter().enumerate() {
            if t < lo || t >= hi {
                no = t.div_euclid(layout.width);
                lo = no * layout.width;
                hi = lo.saturating_add(layout.width);
                close = layout.last_close(lo);
            }
            if close <= t {
                continue;
            }
            if close <= last_watermark {
                late += 1;
            } else {
                live[row] = true;
                slices[row] = no;
            }
        }
        keys.evaluate(key_exprs, buf, Some(live.as_slice()))?;
        groups.clear();
        key_groups.clear();
        key_groups.resize(keys.len(), (NO_GROUP, NO_GROUP, [NO_GROUP; GROUP_SLOTS]));
        gids.clear();
        gids.resize(ts.len(), NO_GROUP);
        for row in (0..ts.len()).filter(|&r| live[r]) {
            let (first, latest, slots) = &mut key_groups[keys.ids[row] as usize];
            let slice = slices[row];
            let slot = &mut slots[slice as usize % GROUP_SLOTS];
            let mut g = *slot;
            if g == NO_GROUP || groups[g as usize].slice != slice {
                g = *first;
                while g != NO_GROUP && groups[g as usize].slice != slice {
                    g = groups[g as usize].next;
                }
                if g == NO_GROUP {
                    g = groups.len() as u32;
                    groups.push(Group {
                        slice,
                        len: 0,
                        next: NO_GROUP,
                    });
                    match *latest {
                        NO_GROUP => *first = g,
                        prev => groups[prev as usize].next = g,
                    }
                    *latest = g;
                }
                *slot = g;
            }
            groups[g as usize].len += 1;
            gids[row] = g;
        }
        // A stable counting sort of the live rows by group.
        starts.clear();
        let mut total = 0;
        for g in groups.iter() {
            starts.push(total);
            total += g.len;
        }
        rows.clear();
        rows.resize(total, 0);
        for (row, &g) in gids.iter().enumerate().filter(|&(_, &g)| g != NO_GROUP) {
            let slot = &mut starts[g as usize];
            rows[*slot] = row as u32;
            *slot += 1;
        }
        // Filling advanced each group's start to its end.
        let aggs = &self.aggs;
        for (id, &(first, ..)) in key_groups.iter().enumerate() {
            if first == NO_GROUP {
                continue;
            }
            let ks = key_entry(&mut self.keys, keys.bytes(id), || {
                (keys.key(id), KeySlices::new(keys.values(id).to_vec(), aggs))
            })?;
            let mut g = first;
            while g != NO_GROUP {
                let Group { slice, len, next } = groups[g as usize];
                let (start, end) = (slice * layout.width, starts[g as usize]);
                let group = &rows[end - len..end];
                let i = ks.slot(start, aggs)?;
                for (t, col) in aggs.templates.iter().zip(&mut ks.accs) {
                    t.update_rows(&mut col[i], buf, group)?;
                }
                self.min_dirty = self.min_dirty.min(start);
                g = next;
            }
        }
        Ok(late)
    }

    /// Folds one partial row into its key's slice — the cloud merge of
    /// per-edge slice partials. The row holds the key columns, the slice
    /// bounds, then each aggregate's partial columns (`arities`, in spec
    /// order). A row whose slice's last window closed at
    /// `last_watermark` is late: it folds nothing and returns `true`.
    fn merge_partials(
        &mut self,
        row: &[Value],
        arities: &[usize],
        last_watermark: EventTime,
    ) -> Result<bool> {
        let k = self.key_count;
        let expected = k + 2 + arities.iter().sum::<usize>();
        if row.len() != expected {
            return Err(NebulaError::Eval(format!(
                "window merge: partial row has {} columns, schema {expected}",
                row.len()
            )));
        }
        let start = row[k].as_timestamp().ok_or_else(|| {
            NebulaError::Eval("window merge: partial row missing slice start".into())
        })?;
        if self.layout.last_close(start) <= last_watermark {
            return Ok(true);
        }
        let key = &mut self.scratch.key;
        key.clear();
        for v in &row[..k] {
            super::encode_value(v, key);
        }
        let aggs = &self.aggs;
        let ks = key_entry(&mut self.keys, key, || {
            (
                GroupKey::from_values(&row[..k]),
                KeySlices::new(row[..k].to_vec(), aggs),
            )
        })?;
        let i = ks.slot(start, aggs)?;
        let mut off = k + 2;
        for ((t, col), &arity) in aggs.templates.iter().zip(&mut ks.accs).zip(arities) {
            t.merge_partial(&mut col[i], &row[off..off + arity])?;
            off += arity;
        }
        self.min_dirty = self.min_dirty.min(start);
        Ok(false)
    }

    /// Materializes every window whose end lies in `(after, upto]`
    /// (`upto = None`: every window not yet emitted — end-of-stream) by
    /// merging its covering slices into one reused set of accumulators,
    /// then retires slices no open window can ever read again
    /// (`last_close <= upto`). Rows come out in (window start, key
    /// bytes) order ([`emission_order`]), however the key map iterates.
    fn close_windows(&mut self, after: EventTime, upto: Option<EventTime>) -> Result<Vec<Record>> {
        let mut rows = Vec::new();
        let (size, slide, width) = (self.layout.size, self.layout.slide, self.layout.width);
        let (aggs, window) = (&self.aggs, &mut self.scratch.window);
        for (key, ks) in &self.keys {
            // Candidate window starts are multiples of `slide` bounded
            // by the key's live slice span AND the (after, upto] end
            // range — enumerated directly, so a watermark that closes
            // nothing costs nothing per live slice.
            let (Some(lo), Some(hi)) = (ks.heads.front(), ks.heads.back()) else {
                continue;
            };
            // A window [W, W+size) covers a slice in [lo, hi] iff
            // W > lo - size (its end reaches past `lo`) and W <= hi;
            // its end lands in (after, upto] iff W > after - size and
            // (upto absent or W <= upto - size).
            let w_lo = lo
                .start
                .saturating_sub(size)
                .saturating_add(width)
                .max(after.saturating_sub(size).saturating_add(1));
            let w_hi = match upto {
                Some(b) => hi.start.min(b.saturating_sub(size)),
                None => hi.start,
            };
            // Round `w_lo` up to the next multiple of `slide`.
            let mut start = -((-w_lo).div_euclid(slide)) * slide;
            while start <= w_hi {
                let first = ks.heads.partition_point(|h| h.start < start);
                let end = ks.heads.partition_point(|h| h.start < start + size);
                if first < end {
                    aggs.reset(window)?;
                    for ((t, acc), col) in aggs.templates.iter().zip(&mut *window).zip(&ks.accs) {
                        t.merge_all(acc, col.range(first..end))?;
                    }
                    let mut values = Vec::with_capacity(ks.key_values.len() + 2 + aggs.len());
                    values.extend(ks.key_values.iter().cloned());
                    values.push(Value::Timestamp(start));
                    values.push(Value::Timestamp(start + size));
                    for (t, acc) in aggs.templates.iter().zip(&mut *window) {
                        values.push(t.finish(acc)?);
                    }
                    rows.push((start, key.bytes(), Record::new(values)));
                }
                start += slide;
            }
        }
        let records = emission_order(rows);
        match upto {
            Some(wm) => self.retire(wm),
            None => self.keys.clear(),
        }
        Ok(records)
    }

    /// A deep copy of the whole store — every key's every slice's
    /// accumulators — for checkpointing. Fails only if a plugin
    /// aggregator cannot merge (which would equally fail window
    /// materialization).
    fn snapshot(&self) -> Result<SliceStore> {
        let mut keys = KeyMap::default();
        keys.reserve(self.keys.len());
        for (key, ks) in &self.keys {
            let accs = (self.aggs.templates.iter().zip(&ks.accs))
                .map(|(t, col)| col.iter().map(|acc| self.aggs.copy(t, acc)).collect())
                .collect::<Result<_>>()?;
            let copy = KeySlices {
                key_values: ks.key_values.clone(),
                heads: ks.heads.clone(),
                accs,
            };
            keys.insert(key.clone(), copy);
        }
        Ok(SliceStore {
            keys,
            min_dirty: self.min_dirty,
            ..SliceStore::new(self.layout, self.key_count, self.aggs.clone())
        })
    }

    /// Drops slices whose last covering window has closed: no record or
    /// partial for them can ever be anything but late. They are the
    /// front of each key's ring (`last_close` grows with the slice
    /// start), and a key whose ring empties leaves the map.
    fn retire(&mut self, wm: EventTime) {
        let layout = self.layout;
        self.keys.retain(|_, ks| {
            let done = ks
                .heads
                .partition_point(|h| layout.last_close(h.start) <= wm);
            ks.heads.drain(..done);
            for col in &mut ks.accs {
                col.drain(..done);
            }
            !ks.heads.is_empty()
        });
    }

    /// Snapshots and resets every dirty slice due for shipping — the
    /// edge-side flush. A slice is due once the first window covering it
    /// closes (`first_close <= wm`; `wm = None` flushes everything, for
    /// end-of-stream). The accumulators reset to empty, so a slice that
    /// keeps receiving records ships *delta* partials which the cloud
    /// merge folds together. Rows are (keys, slice_start, slice_end,
    /// partial columns), in (slice start, key bytes) order.
    fn flush_dirty(&mut self, wm: Option<EventTime>) -> Result<Vec<Record>> {
        let mut rows = Vec::new();
        let (layout, aggs) = (self.layout, &self.aggs);
        let mut min_dirty = EventTime::MAX;
        for (key, ks) in &mut self.keys {
            for (i, head) in ks.heads.iter_mut().enumerate() {
                if !head.dirty || wm.is_some_and(|w| layout.first_close(head.start) > w) {
                    if head.dirty {
                        min_dirty = min_dirty.min(head.start);
                    }
                    continue;
                }
                head.dirty = false;
                let mut values = Vec::with_capacity(ks.key_values.len() + 2 + aggs.len());
                values.extend(ks.key_values.iter().cloned());
                values.push(Value::Timestamp(head.start));
                values.push(Value::Timestamp(head.start + layout.width));
                for (t, col) in aggs.templates.iter().zip(&mut ks.accs) {
                    t.partial_into(&col[i], &mut values)?;
                    col[i] = aggs.empty(t)?;
                }
                rows.push((head.start, key.bytes(), Record::new(values)));
            }
        }
        self.min_dirty = min_dirty;
        Ok(emission_order(rows))
    }
}

/// One key's open threshold window (time windows live in the
/// `SliceStore`).
struct ThresholdState {
    key_values: Vec<Value>,
    start: EventTime,
    /// Last-seen event time.
    end: EventTime,
    count: u64,
    accs: Vec<Acc>,
}

impl ThresholdState {
    /// Opens a window at its first record's event time `ts`.
    fn open(key_values: Vec<Value>, ts: EventTime, aggs: &Aggs) -> Result<Self> {
        let mut accs = Vec::with_capacity(aggs.len());
        aggs.reset(&mut accs)?;
        Ok(ThresholdState {
            key_values,
            start: ts,
            end: ts,
            count: 0,
            accs,
        })
    }

    /// Counts one more record at `ts` into the window.
    fn extend(&mut self, ts: EventTime) {
        self.end = self.end.max(ts);
        self.count += 1;
    }

    /// Folds the queued `rows` of `buf` into the accumulators and
    /// empties the queue.
    fn fold(&mut self, aggs: &Aggs, buf: &TupleBuffer, rows: &mut Vec<u32>) -> Result<()> {
        for (t, acc) in aggs.templates.iter().zip(&mut self.accs) {
            t.update_rows(acc, buf, rows)?;
        }
        rows.clear();
        Ok(())
    }

    /// The window's output row: key columns, start, end, aggregates.
    fn into_record(mut self, aggs: &Aggs) -> Result<Record> {
        let mut values = Vec::with_capacity(self.key_values.len() + 2 + self.accs.len());
        values.append(&mut self.key_values);
        values.push(Value::Timestamp(self.start));
        values.push(Value::Timestamp(self.end));
        for (t, acc) in aggs.templates.iter().zip(&mut self.accs) {
            values.push(t.finish(acc)?);
        }
        Ok(Record::new(values))
    }

    /// A deep copy, for checkpointing.
    fn copy(&self, aggs: &Aggs) -> Result<Self> {
        Ok(ThresholdState {
            key_values: self.key_values.clone(),
            accs: (aggs.templates.iter().zip(&self.accs))
                .map(|(t, acc)| aggs.copy(t, acc))
                .collect::<Result<_>>()?,
            ..*self
        })
    }
}

/// Which share of a time window an operator runs. Run whole, one
/// operator absorbs records and emits finished windows; the cluster
/// splits that work into an edge partial feeding a cloud merge.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    /// Records in, finished windows out.
    Whole,
    /// The edge half: records in, one partial row per slice out (see
    /// `SliceStore::flush_dirty`).
    Partial,
    /// The cloud half: partial rows in, finished windows out.
    Merge,
}

/// What a window operator keeps between buffers.
enum WindowState {
    /// Tumbling/sliding windows: per-(key, slice) accumulators, the
    /// operator's role, and each aggregate's partial column count (split
    /// roles only; the merge reads partial rows by it).
    Time {
        store: Box<SliceStore>,
        role: Role,
        arities: Vec<usize>,
    },
    /// Threshold windows: the open window of each key (`None` only
    /// while the batch kernel holds it), and the kernel's per-key queues
    /// of rows still to fold, reused from buffer to buffer.
    Threshold {
        predicate: BoundExpr,
        min_count: usize,
        aggs: Aggs,
        open: KeyMap<Option<ThresholdState>>,
        queues: Vec<Vec<u32>>,
    },
}

/// Keyed windowed aggregation over event time.
///
/// - Time windows (tumbling/sliding) aggregate into shared slices and
///   emit when the watermark passes a window's end, merging the covering
///   slices (see `SliceStore`).
/// - Threshold windows open on the first record satisfying the predicate
///   and close (emitting if `count >= min_count`) on the first record of
///   the same key that does not.
///
/// Output schema: key columns, `window_start`, `window_end`, then one
/// column per aggregate. Watermark emission is deterministic: rows leave
/// in (window start, key bytes) order.
///
/// A splittable time window also runs as either half of the cluster's
/// edge/cloud split: [`WindowOp::edge_partial`] and
/// [`WindowOp::cloud_merge`].
pub struct WindowOp {
    ts_col: usize,
    key_exprs: Vec<BoundExpr>,
    key_count: usize,
    output: SchemaRef,
    state: WindowState,
    last_watermark: EventTime,
    late_drops: u64,
    /// The batch kernels' per-buffer keys, reused.
    keys: BufferKeys,
}

impl WindowOp {
    /// Builds the operator, binding keys, the optional threshold
    /// predicate and all aggregates against `input`. `ts_field` names the
    /// event-time column.
    pub fn new(
        ts_field: &str,
        keys: &[(String, Expr)],
        spec: WindowSpec,
        aggs: Vec<WindowAgg>,
        input: SchemaRef,
        registry: &FunctionRegistry,
    ) -> Result<Self> {
        let b = &mut Binder::fail_fast(registry);
        Self::bind(ts_field, keys, spec, aggs, input, b)
    }

    pub(crate) fn bind(
        ts_field: &str,
        keys: &[(String, Expr)],
        spec: WindowSpec,
        aggs: Vec<WindowAgg>,
        input: SchemaRef,
        b: &mut Binder,
    ) -> Result<Self> {
        Self::build(ts_field, keys, spec, aggs, input, b, Role::Whole)
    }

    /// The edge half of a split time window: aggregates records into
    /// shared slices and ships one partial row per slice once the first
    /// window covering the slice closes. Output schema: key columns,
    /// `slice_start`, `slice_end`, then each aggregate's partial columns
    /// (`{agg}_p{j}` when an aggregate has several). A slice that keeps
    /// receiving (out-of-order but non-late) records after its first
    /// flush ships *delta* partials; the cloud merge folds them together.
    pub fn edge_partial(
        ts_field: &str,
        keys: &[(String, Expr)],
        spec: &WindowSpec,
        aggs: Vec<WindowAgg>,
        input: SchemaRef,
        registry: &FunctionRegistry,
    ) -> Result<Self> {
        let b = &mut Binder::fail_fast(registry);
        Self::build(ts_field, keys, spec.clone(), aggs, input, b, Role::Partial)
    }

    /// The cloud half of a split time window. `input` is the schema
    /// entering the *window* (the edge prefix's output), against which
    /// the aggregates bind; the operator consumes
    /// [`WindowOp::edge_partial`]'s rows and emits what
    /// [`WindowOp::new`] emits. Windows materialize when the
    /// cluster-wide watermark passes their end. Every edge flushes a
    /// slice's partial *before* forwarding the watermark that closes a
    /// window over it, and the cluster advances the merged watermark to
    /// the minimum across inputs, so on FIFO channels no partial arrives
    /// late; one that does is dropped and counted in
    /// [`WindowOp::late_drops`].
    pub fn cloud_merge(
        ts_field: &str,
        keys: &[(String, Expr)],
        spec: &WindowSpec,
        aggs: Vec<WindowAgg>,
        input: SchemaRef,
        registry: &FunctionRegistry,
    ) -> Result<Self> {
        let b = &mut Binder::fail_fast(registry);
        Self::build(ts_field, keys, spec.clone(), aggs, input, b, Role::Merge)
    }

    fn build(
        ts_field: &str,
        keys: &[(String, Expr)],
        spec: WindowSpec,
        aggs: Vec<WindowAgg>,
        input: SchemaRef,
        b: &mut Binder,
        role: Role,
    ) -> Result<Self> {
        let registry = b.registry();
        b.at("window");
        if let Err(NebulaError::Plan(m)) = spec.validate() {
            b.report(Code::BadWindowGeometry, m)?;
        }
        let ts_col = input.index_of(ts_field);
        if ts_col.is_none() {
            let msg = format!("window: unknown ts field '{ts_field}' in schema {input}");
            b.report(Code::MissingTimeField, msg)?;
        }
        // Only a collecting binder gets past a missing ts column.
        let ts_col = ts_col.unwrap_or(0);
        let key_count = keys.len();
        let mut key_exprs = Vec::with_capacity(key_count);
        let mut fields = Vec::with_capacity(key_count + 2 + aggs.len());
        for (j, (name, e)) in keys.iter().enumerate() {
            b.at(format_args!("window/key[{j}]"));
            let (e, t) = e.bind_with(&input, b)?;
            key_exprs.push(e);
            fields.push(Field::new(name.clone(), t.unwrap_or(DataType::Null)));
        }
        let bound = if role == Role::Partial {
            "slice"
        } else {
            "window"
        };
        fields.push(Field::new(format!("{bound}_start"), DataType::Timestamp));
        fields.push(Field::new(format!("{bound}_end"), DataType::Timestamp));
        let ts = BoundExpr::Column(ts_col);
        let mut templates = Vec::with_capacity(aggs.len());
        let mut arities = Vec::new();
        for (j, agg) in aggs.into_iter().enumerate() {
            b.at(format_args!("window/agg[{j}]"));
            let (template, t) = agg.spec.bind(&input, &ts, b)?;
            templates.push(template);
            let t = t.unwrap_or(DataType::Null);
            if role == Role::Whole {
                fields.push(Field::new(agg.name, t));
                continue;
            }
            let partial = agg.spec.partial_types(&input, registry)?.ok_or_else(|| {
                NebulaError::Plan(format!(
                    "aggregate '{}' is not splittable across node boundaries",
                    agg.name
                ))
            })?;
            arities.push(partial.len());
            match (role, partial.len()) {
                (Role::Partial, 1) => fields.push(Field::new(agg.name, partial[0])),
                (Role::Partial, _) => {
                    for (j, t) in partial.into_iter().enumerate() {
                        fields.push(Field::new(format!("{}_p{j}", agg.name), t));
                    }
                }
                _ => fields.push(Field::new(agg.name, t)),
            }
        }
        let aggs = |input| Aggs {
            templates,
            input,
            registry: registry.clone(),
        };
        let state = match spec {
            WindowSpec::Tumbling { size: size @ slide } | WindowSpec::Sliding { size, slide } => {
                let layout = SliceLayout::new(size, slide);
                WindowState::Time {
                    store: Box::new(SliceStore::new(layout, key_count, aggs(input))),
                    role,
                    arities,
                }
            }
            WindowSpec::Threshold { .. } if role != Role::Whole => {
                return Err(NebulaError::Plan(
                    "threshold windows cannot pre-aggregate".into(),
                ))
            }
            WindowSpec::Threshold {
                predicate,
                min_count,
            } => {
                b.at("window");
                let (predicate, t) = predicate.bind_with(&input, b)?;
                // Strict: a NULL-typed predicate is rejected too.
                if let Some(t) = t.filter(|&t| t != DataType::Bool) {
                    let msg = format!("threshold predicate must be BOOL, got {t}");
                    b.report(Code::PredicateNotBool, msg)?;
                }
                WindowState::Threshold {
                    predicate,
                    min_count,
                    aggs: aggs(input),
                    open: KeyMap::default(),
                    queues: Vec::new(),
                }
            }
        };
        Ok(WindowOp {
            ts_col,
            key_count,
            key_exprs,
            output: Schema::new(fields),
            state,
            last_watermark: EventTime::MIN,
            late_drops: 0,
            keys: BufferKeys::default(),
        })
    }

    /// Records dropped because *every* window that could have held them
    /// had already been closed by a watermark (each record counts at
    /// most once; a record late for some windows but live for others is
    /// absorbed, not counted). The cloud merge counts the partial rows
    /// it drops the same way.
    pub fn late_drops(&self) -> u64 {
        self.late_drops
    }

    fn role(&self) -> Role {
        match &self.state {
            WindowState::Time { role, .. } => *role,
            WindowState::Threshold { .. } => Role::Whole,
        }
    }

    fn push_rows(&self, records: Vec<Record>, out: &mut Vec<StreamMessage>) {
        if !records.is_empty() {
            out.push(StreamMessage::Data(RecordBuffer::new(
                self.output.clone(),
                records,
            )));
        }
    }
}

impl Operator for WindowOp {
    fn name(&self) -> &str {
        "window"
    }

    fn output_schema(&self) -> SchemaRef {
        self.output.clone()
    }

    fn process(&mut self, buf: RecordBuffer, out: &mut Vec<StreamMessage>) -> Result<()> {
        if let WindowState::Time {
            store,
            role: Role::Merge,
            arities,
        } = &mut self.state
        {
            for rec in buf.records() {
                if store.merge_partials(rec.values(), arities, self.last_watermark)? {
                    self.late_drops += 1;
                }
            }
            return Ok(());
        }
        let mut emitted: Vec<Record> = Vec::new();
        for rec in buf.records() {
            let ts = rec
                .get(self.ts_col)
                .and_then(Value::as_timestamp)
                .ok_or_else(|| NebulaError::Eval("window: record missing event time".into()))?;
            match &mut self.state {
                WindowState::Time { store, .. } => {
                    if store.absorb(&self.key_exprs, rec, ts, self.last_watermark)? {
                        self.late_drops += 1;
                    }
                }
                WindowState::Threshold {
                    predicate,
                    min_count,
                    aggs,
                    open,
                    ..
                } => {
                    let (key, key_values) = GroupKey::evaluate(&self.key_exprs, rec)?;
                    if predicate.eval_predicate(rec)? {
                        let window = open.entry(key).or_default();
                        let st = match window {
                            Some(st) => st,
                            None => window.insert(ThresholdState::open(key_values, ts, aggs)?),
                        };
                        st.extend(ts);
                        for (t, acc) in aggs.templates.iter().zip(&mut st.accs) {
                            t.update(acc, rec)?;
                        }
                    } else if let Some(st) = open.remove(&key).flatten() {
                        if st.count as usize >= *min_count {
                            emitted.push(st.into_record(aggs)?);
                        }
                    }
                }
            }
        }
        self.push_rows(emitted, out);
        Ok(())
    }

    fn supports_columnar(&self) -> bool {
        true
    }

    /// Keys fold as per-buffer ids and aggregates as typed loops; a
    /// threshold predicate runs as one mask per buffer. The cloud merge
    /// reads its few partial rows as rows.
    fn columnar_benefit(&self) -> bool {
        self.role() != Role::Merge
    }

    /// Finished windows leave as rows.
    fn propagates_columnar(&self) -> bool {
        false
    }

    /// The time column, the keys, every aggregate's operand and a
    /// threshold predicate — however few of the output columns are
    /// live, since every window still closes. The cloud merge reads its
    /// partial rows whole.
    fn reads(&self, _live: &ReadSet, reads: &mut ReadSet) {
        reads.insert(self.ts_col);
        for k in &self.key_exprs {
            k.mark_reads(reads);
        }
        let aggs = match &self.state {
            WindowState::Time {
                role: Role::Merge, ..
            } => return reads.insert_all(),
            WindowState::Time { store, .. } => &store.aggs,
            WindowState::Threshold {
                predicate, aggs, ..
            } => {
                predicate.mark_reads(reads);
                aggs
            }
        };
        for t in &aggs.templates {
            t.mark_reads(reads);
        }
    }

    /// The batch kernels. Time windows: see `SliceStore::absorb_buffer`.
    /// Threshold windows: the predicate runs once as a mask and the key
    /// once as per-buffer ids; each key's open window then advances row
    /// by row in arrival order, queueing the rows it absorbs and folding
    /// them in one pass per aggregate when it closes or the buffer ends.
    /// Each check runs over the whole buffer before the
    /// next, so when two checks fail on different rows the error may be
    /// another variant than the row path's. The cloud merge walks the
    /// buffer's rows through the row path.
    fn process_columnar(&mut self, buf: TupleBuffer, out: &mut Vec<StreamMessage>) -> Result<()> {
        if self.role() == Role::Merge {
            return self.process(buf.to_record_buffer(), out);
        }
        let ts = event_times(&buf, self.ts_col, "window")?;
        let mut emitted: Vec<Record> = Vec::new();
        let keys = &mut self.keys;
        match &mut self.state {
            WindowState::Time { store, .. } => {
                self.late_drops +=
                    store.absorb_buffer(&self.key_exprs, &buf, &ts, self.last_watermark, keys)?;
            }
            WindowState::Threshold {
                predicate,
                min_count,
                aggs,
                open,
                queues,
            } => {
                keys.evaluate(&self.key_exprs, &buf, None)?;
                let holds = predicate.eval_mask(&buf)?;
                // Each distinct key's open window leaves its map entry
                // once per buffer; its queue collects the rows to fold.
                let mut windows: Vec<Option<ThresholdState>> = (0..keys.len())
                    .map(|id| open.get_mut(keys.bytes(id)).and_then(Option::take))
                    .collect();
                if queues.len() < keys.len() {
                    queues.resize_with(keys.len(), Vec::new);
                }
                for (row, (&id, &t)) in keys.ids.iter().zip(ts.iter()).enumerate() {
                    let (window, rows) = (&mut windows[id as usize], &mut queues[id as usize]);
                    if holds[row] {
                        let st = match window {
                            Some(st) => st,
                            None => window.insert(ThresholdState::open(
                                keys.values(id as usize).to_vec(),
                                t,
                                aggs,
                            )?),
                        };
                        st.extend(t);
                        rows.push(row as u32);
                    } else if let Some(mut st) = window.take() {
                        st.fold(aggs, &buf, rows)?;
                        if st.count as usize >= *min_count {
                            emitted.push(st.into_record(aggs)?);
                        }
                    }
                }
                for (id, (window, rows)) in windows.into_iter().zip(queues.iter_mut()).enumerate() {
                    let bytes = keys.bytes(id);
                    let Some(mut st) = window else {
                        open.remove(bytes);
                        continue;
                    };
                    st.fold(aggs, &buf, rows)?;
                    match open.get_mut(bytes) {
                        Some(entry) => *entry = Some(st),
                        None => {
                            open.insert(keys.key(id), Some(st));
                        }
                    }
                }
            }
        }
        self.push_rows(emitted, out);
        Ok(())
    }

    /// A watermark that moves past no window end (and, at the edge,
    /// finds no slice due) is forwarded at once: nothing closes, ships
    /// or retires, so it costs no walk over the keys.
    fn on_watermark(&mut self, wm: EventTime, out: &mut Vec<StreamMessage>) -> Result<()> {
        let prev = self.last_watermark;
        self.last_watermark = self.last_watermark.max(wm);
        if let WindowState::Time { store, role, .. } = &mut self.state {
            if store.quiet(*role, prev, self.last_watermark) {
                out.push(StreamMessage::Watermark(wm));
                return Ok(());
            }
            let records = if *role == Role::Partial {
                // Ship every dirty slice some window needs before this
                // watermark reaches the cloud (FIFO channels deliver the
                // data first), then retire slices no open window can
                // ever read again.
                let records = store.flush_dirty(Some(self.last_watermark))?;
                store.retire(self.last_watermark);
                records
            } else {
                store.close_windows(prev, Some(self.last_watermark))?
            };
            self.push_rows(records, out);
        }
        out.push(StreamMessage::Watermark(wm));
        Ok(())
    }

    fn on_eos(&mut self, out: &mut Vec<StreamMessage>) -> Result<()> {
        // Flush everything still open.
        let records = match &mut self.state {
            WindowState::Time {
                store,
                role: Role::Partial,
                ..
            } => store.flush_dirty(None)?,
            WindowState::Time { store, .. } => store.close_windows(self.last_watermark, None)?,
            WindowState::Threshold {
                min_count,
                open,
                aggs,
                ..
            } => {
                let mut rows = Vec::new();
                for (key, st) in open.drain() {
                    match st {
                        Some(st) if st.count as usize >= *min_count => {
                            rows.push((st.start, key, st.into_record(aggs)?));
                        }
                        _ => {}
                    }
                }
                // The same deterministic (start, key) order as slice
                // output, whatever the hash map's iteration order.
                emission_order(rows)
            }
        };
        self.push_rows(records, out);
        out.push(StreamMessage::Eos);
        Ok(())
    }

    fn late_drops(&self) -> u64 {
        self.late_drops
    }

    fn state_bytes(&self) -> usize {
        match &self.state {
            WindowState::Time { store, .. } => store.est_state_bytes(),
            // Per key its map entry and key bytes; per open window its
            // key values and inline accumulators.
            WindowState::Threshold { open, .. } => open
                .iter()
                .map(|(key, st)| {
                    size_of::<(GroupKey, Option<ThresholdState>)>()
                        + key.bytes().len()
                        + st.as_ref().map_or(0, |st| {
                            st.key_values.len() * size_of::<Value>()
                                + st.accs.len() * size_of::<Acc>()
                        })
                })
                .sum(),
        }
    }

    /// Configuration is cloned and built-in accumulator state copied;
    /// a plugin's accumulators are duplicated through the aggregator
    /// merge contract (so one that cannot merge fails here, as it would
    /// at materialization).
    fn snapshot(&self) -> Result<Box<dyn Operator>> {
        let state = match &self.state {
            WindowState::Time {
                store,
                role,
                arities,
            } => WindowState::Time {
                store: Box::new(store.snapshot()?),
                role: *role,
                arities: arities.clone(),
            },
            WindowState::Threshold {
                predicate,
                min_count,
                aggs,
                open,
                ..
            } => {
                let mut copy = KeyMap::default();
                copy.reserve(open.len());
                for (key, st) in open {
                    let st = st.as_ref().map(|st| st.copy(aggs)).transpose()?;
                    copy.insert(key.clone(), st);
                }
                WindowState::Threshold {
                    predicate: predicate.clone(),
                    min_count: *min_count,
                    aggs: aggs.clone(),
                    open: copy,
                    queues: Vec::new(),
                }
            }
        };
        Ok(Box::new(WindowOp {
            ts_col: self.ts_col,
            key_exprs: self.key_exprs.clone(),
            key_count: self.key_count,
            output: self.output.clone(),
            state,
            last_watermark: self.last_watermark,
            late_drops: self.late_drops,
            keys: BufferKeys::default(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::value::MICROS_PER_SEC;
    use crate::window::AggSpec;

    fn schema() -> SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("train", DataType::Int),
            ("speed", DataType::Float),
        ])
    }

    fn rec(ts_s: i64, train: i64, speed: f64) -> Record {
        Record::new(vec![
            Value::Timestamp(ts_s * MICROS_PER_SEC),
            Value::Int(train),
            Value::Float(speed),
        ])
    }

    fn make_op(spec: WindowSpec) -> WindowOp {
        let reg = FunctionRegistry::with_builtins();
        WindowOp::new(
            "ts",
            &[("train".into(), col("train"))],
            spec,
            vec![
                WindowAgg::new("n", AggSpec::Count),
                WindowAgg::new("avg_speed", AggSpec::Avg(col("speed"))),
            ],
            schema(),
            &reg,
        )
        .unwrap()
    }

    fn data_records(msgs: &[StreamMessage]) -> Vec<Record> {
        msgs.iter()
            .filter_map(|m| match m {
                StreamMessage::Data(b) => Some(b.records().to_vec()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    #[test]
    fn tumbling_emits_on_watermark() {
        let mut op = make_op(WindowSpec::Tumbling {
            size: 10 * MICROS_PER_SEC,
        });
        let mut out = Vec::new();
        op.process(
            RecordBuffer::new(
                schema(),
                vec![rec(1, 1, 10.0), rec(5, 1, 20.0), rec(12, 1, 30.0)],
            ),
            &mut out,
        )
        .unwrap();
        assert!(data_records(&out).is_empty(), "nothing before watermark");

        op.on_watermark(10 * MICROS_PER_SEC, &mut out).unwrap();
        let recs = data_records(&out);
        assert_eq!(recs.len(), 1, "only the [0,10) window closed");
        let r = &recs[0];
        assert_eq!(r.get(0), Some(&Value::Int(1)), "key");
        assert_eq!(r.get(1), Some(&Value::Timestamp(0)), "start");
        assert_eq!(
            r.get(2),
            Some(&Value::Timestamp(10 * MICROS_PER_SEC)),
            "end"
        );
        assert_eq!(r.get(3), Some(&Value::Int(2)), "count");
        assert_eq!(r.get(4), Some(&Value::Float(15.0)), "avg");
    }

    #[test]
    fn watermark_that_closes_nothing_only_forwards() {
        let mut op = make_op(WindowSpec::Tumbling {
            size: 10 * MICROS_PER_SEC,
        });
        let mut out = Vec::new();
        let recs = vec![rec(1, 1, 10.0), rec(12, 1, 30.0), rec(14, 2, 5.0)];
        op.process(RecordBuffer::new(schema(), recs), &mut out)
            .unwrap();
        op.on_watermark(10 * MICROS_PER_SEC, &mut out).unwrap();
        assert_eq!(data_records(&out).len(), 1, "[0,10) closed");
        let bytes = op.state_bytes();
        // (10 s, 15 s] holds no window end: nothing closes or retires.
        let mut out = Vec::new();
        op.on_watermark(15 * MICROS_PER_SEC, &mut out).unwrap();
        assert!(
            matches!(out.as_slice(), [StreamMessage::Watermark(w)] if *w == 15 * MICROS_PER_SEC),
            "only the watermark leaves"
        );
        assert_eq!(op.state_bytes(), bytes, "state untouched");
        op.on_watermark(20 * MICROS_PER_SEC, &mut out).unwrap();
        assert_eq!(data_records(&out).len(), 2, "[10,20) closes for both keys");
        assert_eq!(op.state_bytes(), 0, "every slice retired");
    }

    #[test]
    fn edge_ships_a_slice_that_came_due_between_window_ends() {
        // Sliding 20 s / 5 s: after the watermark at 25 s, a record at
        // 12 s is late for [0,20) but live for [5,25)..[10,30), and its
        // slice's first window has closed — so the next watermark ships
        // it even though (25 s, 26 s] holds no window end.
        let reg = FunctionRegistry::with_builtins();
        let spec = WindowSpec::Sliding {
            size: 20 * MICROS_PER_SEC,
            slide: 5 * MICROS_PER_SEC,
        };
        let mut edge = WindowOp::edge_partial(
            "ts",
            &split_keys(),
            &spec,
            split_aggs(),
            split_schema(),
            &reg,
        )
        .unwrap();
        let mut out = Vec::new();
        edge.on_watermark(25 * MICROS_PER_SEC, &mut out).unwrap();
        edge.process(
            RecordBuffer::new(split_schema(), vec![split_rec(12, 0, 1.0, 1)]),
            &mut out,
        )
        .unwrap();
        let mut out = Vec::new();
        edge.on_watermark(26 * MICROS_PER_SEC, &mut out).unwrap();
        let partials = data_records(&out);
        assert_eq!(partials.len(), 1, "the due slice ships");
        assert_eq!(
            partials[0].get(1),
            Some(&Value::Timestamp(10 * MICROS_PER_SEC))
        );
        let mut out = Vec::new();
        edge.on_watermark(27 * MICROS_PER_SEC, &mut out).unwrap();
        assert!(
            matches!(out.as_slice(), [StreamMessage::Watermark(_)]),
            "nothing left to ship"
        );
    }

    #[test]
    fn state_estimate_follows_the_slice_layout() {
        // Two aggregates (count, avg) keyed by an `Int`: per key its map
        // entry, 9 key bytes, one key value and two accumulator columns;
        // per live slice its head and two inline accumulators.
        let key = size_of::<(GroupKey, KeySlices)>()
            + 9
            + size_of::<Value>()
            + 2 * size_of::<VecDeque<Acc>>();
        let slice = size_of::<SliceHead>() + 2 * size_of::<Acc>();
        let mut op = make_op(WindowSpec::Tumbling {
            size: 10 * MICROS_PER_SEC,
        });
        let mut out = Vec::new();
        let recs = vec![
            rec(1, 1, 1.0),
            rec(2, 1, 2.0),
            rec(12, 1, 3.0),
            rec(3, 2, 4.0),
        ];
        op.process(RecordBuffer::new(schema(), recs), &mut out)
            .unwrap();
        assert_eq!(
            op.state_bytes(),
            2 * key + 3 * slice,
            "two keys, three slices"
        );
        op.on_watermark(10 * MICROS_PER_SEC, &mut out).unwrap();
        assert_eq!(op.state_bytes(), key + slice, "key 2 left with its slice");

        // A threshold window: per key its map entry and key bytes; per
        // open window its key values and inline accumulators.
        let reg = FunctionRegistry::with_builtins();
        let mut op = WindowOp::new(
            "ts",
            &[("train".into(), col("train"))],
            WindowSpec::Threshold {
                predicate: col("speed").gt(lit(50.0)),
                min_count: 1,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
            schema(),
            &reg,
        )
        .unwrap();
        op.process(RecordBuffer::new(schema(), vec![rec(1, 7, 60.0)]), &mut out)
            .unwrap();
        let open = size_of::<(GroupKey, Option<ThresholdState>)>()
            + 9
            + size_of::<Value>()
            + size_of::<Acc>();
        assert_eq!(op.state_bytes(), open, "one open window");
    }

    #[test]
    fn tumbling_separate_keys() {
        let mut op = make_op(WindowSpec::Tumbling {
            size: 10 * MICROS_PER_SEC,
        });
        let mut out = Vec::new();
        op.process(
            RecordBuffer::new(schema(), vec![rec(1, 1, 10.0), rec(2, 2, 99.0)]),
            &mut out,
        )
        .unwrap();
        op.on_watermark(10 * MICROS_PER_SEC, &mut out).unwrap();
        assert_eq!(data_records(&out).len(), 2);
    }

    #[test]
    fn late_records_dropped() {
        let mut op = make_op(WindowSpec::Tumbling {
            size: 10 * MICROS_PER_SEC,
        });
        let mut out = Vec::new();
        op.on_watermark(20 * MICROS_PER_SEC, &mut out).unwrap();
        op.process(RecordBuffer::new(schema(), vec![rec(5, 1, 10.0)]), &mut out)
            .unwrap();
        op.on_eos(&mut out).unwrap();
        assert!(data_records(&out).is_empty());
        assert_eq!(op.late_drops(), 1);
    }

    #[test]
    fn partially_late_record_absorbed_and_not_counted() {
        // Sliding 20s/5s windows: ts=12 belongs to [-5,15), [0,20),
        // [5,25) and [10,30). A watermark at 25 closes the first three
        // but leaves [10,30) open: the record is late for three of its
        // four windows yet live for the last, so it must be absorbed
        // into the open window and must NOT bump the late counter (the
        // seed counted it once per closed window).
        let mut op = make_op(WindowSpec::Sliding {
            size: 20 * MICROS_PER_SEC,
            slide: 5 * MICROS_PER_SEC,
        });
        let mut out = Vec::new();
        op.on_watermark(25 * MICROS_PER_SEC, &mut out).unwrap();
        op.process(
            RecordBuffer::new(schema(), vec![rec(12, 1, 10.0)]),
            &mut out,
        )
        .unwrap();
        assert_eq!(op.late_drops(), 0, "a live window remains, not a drop");
        op.on_eos(&mut out).unwrap();
        let recs = data_records(&out);
        // Only the still-open [10,30) window emits the record.
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].get(1), Some(&Value::Timestamp(10 * MICROS_PER_SEC)));
        assert_eq!(recs[0].get(3), Some(&Value::Int(1)), "record absorbed");

        // Fully late record: counted exactly once despite four windows.
        let mut op = make_op(WindowSpec::Sliding {
            size: 20 * MICROS_PER_SEC,
            slide: 5 * MICROS_PER_SEC,
        });
        let mut out = Vec::new();
        op.on_watermark(100 * MICROS_PER_SEC, &mut out).unwrap();
        op.process(
            RecordBuffer::new(schema(), vec![rec(12, 1, 10.0)]),
            &mut out,
        )
        .unwrap();
        assert_eq!(op.late_drops(), 1, "once per record, not per window");
    }

    #[test]
    fn sliding_multiple_windows() {
        let mut op = make_op(WindowSpec::Sliding {
            size: 10 * MICROS_PER_SEC,
            slide: 5 * MICROS_PER_SEC,
        });
        let mut out = Vec::new();
        op.process(RecordBuffer::new(schema(), vec![rec(7, 1, 10.0)]), &mut out)
            .unwrap();
        op.on_eos(&mut out).unwrap();
        // ts=7 falls in [0,10) and [5,15).
        assert_eq!(data_records(&out).len(), 2);
    }

    #[test]
    fn sliding_gap_record_belongs_to_no_window() {
        // slide > size leaves coverage gaps; a record in a gap is not
        // late, it simply belongs to no window.
        let mut op = make_op(WindowSpec::Sliding {
            size: 10 * MICROS_PER_SEC,
            slide: 15 * MICROS_PER_SEC,
        });
        let mut out = Vec::new();
        op.process(
            RecordBuffer::new(schema(), vec![rec(12, 1, 1.0), rec(16, 1, 2.0)]),
            &mut out,
        )
        .unwrap();
        op.on_eos(&mut out).unwrap();
        let recs = data_records(&out);
        assert_eq!(recs.len(), 1, "only ts=16 lands in a window ([15,25))");
        assert_eq!(op.late_drops(), 0);
    }

    #[test]
    fn eos_flushes_open_windows() {
        let mut op = make_op(WindowSpec::Tumbling {
            size: 10 * MICROS_PER_SEC,
        });
        let mut out = Vec::new();
        op.process(RecordBuffer::new(schema(), vec![rec(3, 1, 5.0)]), &mut out)
            .unwrap();
        op.on_eos(&mut out).unwrap();
        let recs = data_records(&out);
        assert_eq!(recs.len(), 1);
        assert!(matches!(out.last(), Some(StreamMessage::Eos)));
    }

    #[test]
    fn watermark_emission_is_deterministic_and_sorted() {
        // Many keys, one window: emission order must be (window start,
        // key values) regardless of hash-map iteration order. Repeated
        // runs (fresh HashMaps, fresh RandomState) must agree exactly.
        let run_once = || {
            let mut op = make_op(WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            });
            let mut out = Vec::new();
            let recs: Vec<Record> = (0..64).map(|i| rec(i % 50, i % 37, i as f64)).collect();
            op.process(RecordBuffer::new(schema(), recs), &mut out)
                .unwrap();
            op.on_watermark(120 * MICROS_PER_SEC, &mut out).unwrap();
            data_records(&out)
        };
        let first = run_once();
        assert_eq!(first.len(), 37, "one row per key");
        let keys: Vec<i64> = first
            .iter()
            .map(|r| r.get(0).unwrap().as_int().unwrap())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "rows sorted by key within the window");
        for _ in 0..5 {
            assert_eq!(run_once(), first, "emission order is deterministic");
        }
    }

    #[test]
    fn sliding_slices_equal_eager_accumulation() {
        // Overlap factor 4: each record updates ONE slice, yet every
        // window's aggregate must equal eager per-window accumulation.
        let mut op = make_op(WindowSpec::Sliding {
            size: 60 * MICROS_PER_SEC,
            slide: 15 * MICROS_PER_SEC,
        });
        let mut out = Vec::new();
        let recs: Vec<Record> = (0..120).map(|i| rec(i, 1, (i % 7) as f64)).collect();
        op.process(RecordBuffer::new(schema(), recs.clone()), &mut out)
            .unwrap();
        op.on_eos(&mut out).unwrap();
        let got = data_records(&out);
        let spec = WindowSpec::Sliding {
            size: 60 * MICROS_PER_SEC,
            slide: 15 * MICROS_PER_SEC,
        };
        for r in &got {
            let start = r.get(1).unwrap().as_timestamp().unwrap();
            let end = r.get(2).unwrap().as_timestamp().unwrap();
            let expect: Vec<&Record> = recs
                .iter()
                .filter(|x| {
                    let t = x.get(0).unwrap().as_timestamp().unwrap();
                    t >= start && t < end
                })
                .collect();
            assert_eq!(
                r.get(3).unwrap().as_int().unwrap() as usize,
                expect.len(),
                "window [{start},{end})"
            );
            let sum: f64 = expect
                .iter()
                .map(|x| x.get(2).unwrap().as_float().unwrap())
                .sum();
            let avg = r.get(4).unwrap().as_float().unwrap();
            assert!((avg - sum / expect.len() as f64).abs() < 1e-9);
            assert!(spec.assign(start).contains(&start) || start % (15 * MICROS_PER_SEC) == 0);
        }
    }

    #[test]
    fn threshold_window_opens_and_closes() {
        let mut op = {
            let reg = FunctionRegistry::with_builtins();
            WindowOp::new(
                "ts",
                &[("train".into(), col("train"))],
                WindowSpec::Threshold {
                    predicate: col("speed").gt(lit(50.0)),
                    min_count: 2,
                },
                vec![
                    WindowAgg::new("n", AggSpec::Count),
                    WindowAgg::new("max_speed", AggSpec::Max(col("speed"))),
                ],
                schema(),
                &reg,
            )
            .unwrap()
        };
        let mut out = Vec::new();
        op.process(
            RecordBuffer::new(
                schema(),
                vec![
                    rec(1, 1, 60.0), // opens
                    rec(2, 1, 70.0), // extends
                    rec(3, 1, 10.0), // closes -> emit (count 2)
                    rec(4, 1, 80.0), // opens again
                    rec(5, 1, 5.0),  // closes -> below min_count, dropped
                ],
            ),
            &mut out,
        )
        .unwrap();
        let recs = data_records(&out);
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.get(1), Some(&Value::Timestamp(MICROS_PER_SEC)));
        assert_eq!(r.get(2), Some(&Value::Timestamp(2 * MICROS_PER_SEC)));
        assert_eq!(r.get(3), Some(&Value::Int(2)));
        assert_eq!(r.get(4), Some(&Value::Float(70.0)));
    }

    #[test]
    fn threshold_flushes_on_eos() {
        let reg = FunctionRegistry::with_builtins();
        let mut op = WindowOp::new(
            "ts",
            &[],
            WindowSpec::Threshold {
                predicate: col("speed").gt(lit(50.0)),
                min_count: 1,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
            schema(),
            &reg,
        )
        .unwrap();
        let mut out = Vec::new();
        op.process(RecordBuffer::new(schema(), vec![rec(1, 1, 60.0)]), &mut out)
            .unwrap();
        op.on_eos(&mut out).unwrap();
        let recs = data_records(&out);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].get(2), Some(&Value::Int(1)));
    }

    #[test]
    fn output_schema_layout() {
        let op = make_op(WindowSpec::Tumbling {
            size: MICROS_PER_SEC,
        });
        assert_eq!(
            op.output_schema().to_string(),
            "(train: INT, window_start: TIMESTAMP, window_end: TIMESTAMP, \
             n: INT, avg_speed: FLOAT)"
        );
    }

    fn split_schema() -> SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("train", DataType::Int),
            ("speed", DataType::Float),
            ("load", DataType::Int),
        ])
    }

    fn split_rec(ts_s: i64, train: i64, speed: f64, load: i64) -> Record {
        Record::new(vec![
            Value::Timestamp(ts_s * MICROS_PER_SEC),
            Value::Int(train),
            Value::Float(speed),
            Value::Int(load),
        ])
    }

    fn split_aggs() -> Vec<WindowAgg> {
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("sum_load", AggSpec::Sum(col("load"))),
            WindowAgg::new("min_speed", AggSpec::Min(col("speed"))),
            WindowAgg::new("max_speed", AggSpec::Max(col("speed"))),
            WindowAgg::new("avg_speed", AggSpec::Avg(col("speed"))),
            WindowAgg::new("last_speed", AggSpec::Last(col("speed"))),
        ]
    }

    fn split_keys() -> Vec<(String, Expr)> {
        vec![("train".to_string(), col("train"))]
    }

    /// Drives records through one edge partial and the cloud merge,
    /// with a watermark after every batch and Eos at the end.
    fn split_run(
        spec: &WindowSpec,
        batches: Vec<Vec<Record>>,
        watermarks: Vec<EventTime>,
    ) -> Vec<Record> {
        let reg = FunctionRegistry::with_builtins();
        let mut edge = WindowOp::edge_partial(
            "ts",
            &split_keys(),
            spec,
            split_aggs(),
            split_schema(),
            &reg,
        )
        .unwrap();
        let mut cloud = WindowOp::cloud_merge(
            "ts",
            &split_keys(),
            spec,
            split_aggs(),
            split_schema(),
            &reg,
        )
        .unwrap();
        let mut cloud_in = Vec::new();
        for (batch, wm) in batches.into_iter().zip(watermarks) {
            edge.process(RecordBuffer::new(split_schema(), batch), &mut cloud_in)
                .unwrap();
            edge.on_watermark(wm, &mut cloud_in).unwrap();
        }
        edge.on_eos(&mut cloud_in).unwrap();
        let mut out = Vec::new();
        for msg in cloud_in {
            match msg {
                StreamMessage::Data(b) => cloud.process(b, &mut out).unwrap(),
                StreamMessage::Columnar(b) => cloud.process_columnar(b, &mut out).unwrap(),
                StreamMessage::Watermark(w) => cloud.on_watermark(w, &mut out).unwrap(),
                StreamMessage::Eos => cloud.on_eos(&mut out).unwrap(),
            }
        }
        assert_eq!(cloud.late_drops(), 0);
        data_records(&out)
    }

    /// The single-process reference over the same feed.
    fn local_run(
        spec: WindowSpec,
        records: Vec<Record>,
        watermarks: Vec<EventTime>,
    ) -> Vec<Record> {
        let reg = FunctionRegistry::with_builtins();
        let mut op = WindowOp::new(
            "ts",
            &split_keys(),
            spec,
            split_aggs(),
            split_schema(),
            &reg,
        )
        .unwrap();
        let mut out = Vec::new();
        op.process(RecordBuffer::new(split_schema(), records), &mut out)
            .unwrap();
        for wm in watermarks {
            op.on_watermark(wm, &mut out).unwrap();
        }
        op.on_eos(&mut out).unwrap();
        data_records(&out)
    }

    #[test]
    fn split_equals_local_for_tumbling_and_sliding() {
        for spec in [
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            WindowSpec::Sliding {
                size: 60 * MICROS_PER_SEC,
                slide: 15 * MICROS_PER_SEC,
            },
            WindowSpec::Sliding {
                size: 60 * MICROS_PER_SEC,
                slide: 25 * MICROS_PER_SEC,
            },
        ] {
            let records: Vec<Record> = (0..240)
                .map(|i| split_rec(i, i % 3, ((i * 7) % 80) as f64, (i * 13) % 200))
                .collect();
            let split = split_run(
                &spec,
                records.chunks(60).map(<[Record]>::to_vec).collect(),
                vec![
                    20 * MICROS_PER_SEC,
                    80 * MICROS_PER_SEC,
                    140 * MICROS_PER_SEC,
                    200 * MICROS_PER_SEC,
                ],
            );
            let local = local_run(
                spec,
                records,
                vec![
                    20 * MICROS_PER_SEC,
                    80 * MICROS_PER_SEC,
                    140 * MICROS_PER_SEC,
                    200 * MICROS_PER_SEC,
                ],
            );
            assert_eq!(split, local, "split pipeline ≡ local window");
        }
    }

    #[test]
    fn sliding_edge_ships_one_partial_per_slice() {
        // 240 s of data, sliding 60/15: 16 slices per key must cross the
        // boundary, not 16 windows × 4 covering rows.
        let reg = FunctionRegistry::with_builtins();
        let spec = WindowSpec::Sliding {
            size: 60 * MICROS_PER_SEC,
            slide: 15 * MICROS_PER_SEC,
        };
        let mut edge = WindowOp::edge_partial(
            "ts",
            &split_keys(),
            &spec,
            split_aggs(),
            split_schema(),
            &reg,
        )
        .unwrap();
        let mut out = Vec::new();
        let records: Vec<Record> = (0..240).map(|i| split_rec(i, 0, 1.0, 1)).collect();
        edge.process(RecordBuffer::new(split_schema(), records), &mut out)
            .unwrap();
        edge.on_eos(&mut out).unwrap();
        let partials = data_records(&out);
        assert_eq!(partials.len(), 240 / 15, "one partial row per slice");
        // Slice bounds are width apart, and each carries its own count.
        for (i, p) in partials.iter().enumerate() {
            let start = p.get(1).unwrap().as_timestamp().unwrap();
            let end = p.get(2).unwrap().as_timestamp().unwrap();
            assert_eq!(start, i as i64 * 15 * MICROS_PER_SEC);
            assert_eq!(end - start, 15 * MICROS_PER_SEC);
            assert_eq!(p.get(3), Some(&Value::Int(15)), "15 records per slice");
        }
    }

    #[test]
    fn delta_partials_merge_for_out_of_order_records() {
        // A slice flushed once must ship a *delta* when a late-but-live
        // record lands in it afterwards, and the cloud must fold both.
        let spec = WindowSpec::Sliding {
            size: 40 * MICROS_PER_SEC,
            slide: 10 * MICROS_PER_SEC,
        };
        let batches = vec![
            (0..30).map(|i| split_rec(i, 0, 1.0, 1)).collect::<Vec<_>>(),
            // ts=5 is late for [?..) windows closed by wm=40 but live
            // for [ -20..20 )-style later windows? No: for size 40 the
            // record at 5 is live while any window containing it is
            // open; wm=40 closes [ -30..10 ) ... [0, 40). Window
            // [ -10..30 ) etc. — keep it simple: ts=25 after wm=40 is
            // late for [0,40) but live for [10,50), [20,60).
            vec![split_rec(25, 0, 9.0, 5)],
            (40..70)
                .map(|i| split_rec(i, 0, 1.0, 1))
                .collect::<Vec<_>>(),
        ];
        let wms = vec![
            40 * MICROS_PER_SEC,
            40 * MICROS_PER_SEC,
            100 * MICROS_PER_SEC,
        ];
        let split = split_run(&spec, batches.clone(), wms.clone());
        let local = {
            let reg = FunctionRegistry::with_builtins();
            let mut op = WindowOp::new(
                "ts",
                &split_keys(),
                spec,
                split_aggs(),
                split_schema(),
                &reg,
            )
            .unwrap();
            let mut out = Vec::new();
            for (batch, wm) in batches.into_iter().zip(wms) {
                op.process(RecordBuffer::new(split_schema(), batch), &mut out)
                    .unwrap();
                op.on_watermark(wm, &mut out).unwrap();
            }
            op.on_eos(&mut out).unwrap();
            assert_eq!(op.late_drops(), 0, "ts=25 is live for open windows");
            data_records(&out)
        };
        assert_eq!(split, local);
        // The delta record's load must be visible in the open windows.
        let w10 = split
            .iter()
            .find(|r| r.get(1) == Some(&Value::Timestamp(10 * MICROS_PER_SEC)))
            .expect("[10,50) emitted");
        let sum = w10.get(4).unwrap().as_int().unwrap();
        assert!(sum > 30, "delta load folded in: {sum}");
    }

    #[test]
    fn late_partial_dropped_and_counted() {
        let reg = FunctionRegistry::with_builtins();
        let spec = WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        };
        let mut edge = WindowOp::edge_partial(
            "ts",
            &split_keys(),
            &spec,
            split_aggs(),
            split_schema(),
            &reg,
        )
        .unwrap();
        let mut cloud = WindowOp::cloud_merge(
            "ts",
            &split_keys(),
            &spec,
            split_aggs(),
            split_schema(),
            &reg,
        )
        .unwrap();
        // Produce one partial row, then deliver it after the cloud's
        // watermark has already passed the slice's last window.
        let mut edge_out = Vec::new();
        edge.process(
            RecordBuffer::new(split_schema(), vec![split_rec(1, 0, 1.0, 1)]),
            &mut edge_out,
        )
        .unwrap();
        edge.on_eos(&mut edge_out).unwrap();
        let mut out = Vec::new();
        cloud.on_watermark(120 * MICROS_PER_SEC, &mut out).unwrap();
        for msg in edge_out {
            if let StreamMessage::Data(b) = msg {
                cloud.process(b, &mut out).unwrap();
            }
        }
        cloud.on_eos(&mut out).unwrap();
        assert!(data_records(&out).is_empty());
        assert_eq!(cloud.late_drops(), 1);
    }

    #[test]
    fn partial_schema_flattens_aggregate_snapshots() {
        let reg = FunctionRegistry::with_builtins();
        let op = WindowOp::edge_partial(
            "ts",
            &split_keys(),
            &WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            split_aggs(),
            split_schema(),
            &reg,
        )
        .unwrap();
        assert_eq!(
            op.output_schema().to_string(),
            "(train: INT, slice_start: TIMESTAMP, slice_end: TIMESTAMP, n: INT, \
             sum_load: INT, min_speed: FLOAT, max_speed: FLOAT, avg_speed_p0: FLOAT, \
             avg_speed_p1: INT, last_speed_p0: TIMESTAMP, last_speed_p1: FLOAT)"
        );
    }
}
