//! Geofencing: named fence sets exposed as predicate functions and an
//! enter/leave event operator.
//!
//! A [`GeofenceSet`] registers two functions per set (`in_<name>` and
//! `<name>_fence_name`) so queries can filter on containment; the
//! [`GeofenceEventsFactory`] operator turns the containment signal into
//! discrete enter/leave events per tracked object — the demo's
//! "location-based alert filtering" building block.

use crate::values::as_point;
use meos::geo::{Geometry, Metric, Point};
use nebula::prelude::{
    ClosureFunction, DataType, Field, FunctionRegistry, NebulaError, Operator, OperatorFactory,
    Record, RecordBuffer, SchemaRef, StreamMessage, Value,
};
use std::collections::HashMap;
use std::sync::Arc;

/// One named fence.
#[derive(Debug, Clone)]
pub struct Geofence {
    /// Fence name (reported in events).
    pub name: String,
    /// Footprint.
    pub geometry: Geometry,
    bbox: (f64, f64, f64, f64),
}

impl Geofence {
    /// Builds a fence, precomputing its bounding box for pruning.
    pub fn new(name: impl Into<String>, geometry: Geometry) -> Self {
        let bbox = geometry.bbox(Metric::Haversine);
        Geofence {
            name: name.into(),
            geometry,
            bbox,
        }
    }

    /// Containment with bbox pre-filter.
    pub fn contains(&self, p: &Point) -> bool {
        let (xmin, ymin, xmax, ymax) = self.bbox;
        p.x >= xmin
            && p.x <= xmax
            && p.y >= ymin
            && p.y <= ymax
            && self.geometry.contains(p, Metric::Haversine)
    }
}

/// A named collection of fences usable from queries.
#[derive(Debug, Clone)]
pub struct GeofenceSet {
    /// Set name; determines the registered function names.
    pub name: String,
    /// Member fences.
    pub fences: Vec<Geofence>,
}

impl GeofenceSet {
    /// Builds a set from `(name, geometry)` pairs.
    pub fn new(
        name: impl Into<String>,
        fences: impl IntoIterator<Item = (String, Geometry)>,
    ) -> Arc<Self> {
        Arc::new(GeofenceSet {
            name: name.into(),
            fences: fences
                .into_iter()
                .map(|(n, g)| Geofence::new(n, g))
                .collect(),
        })
    }

    /// True iff any fence contains `p`.
    pub fn contains(&self, p: &Point) -> bool {
        self.fences.iter().any(|f| f.contains(p))
    }

    /// The first fence containing `p`.
    pub fn first_containing(&self, p: &Point) -> Option<&Geofence> {
        self.fences.iter().find(|f| f.contains(p))
    }

    /// Registers `in_<name>(point) -> BOOL` and
    /// `<name>_fence_name(point) -> TEXT` (empty text outside).
    pub fn register(self: &Arc<Self>, reg: &mut FunctionRegistry) -> nebula::Result<()> {
        let me = self.clone();
        reg.register(ClosureFunction::new(
            format!("in_{}", self.name),
            1,
            DataType::Bool,
            move |args| {
                let p = as_point(&args[0])?;
                Ok(Value::Bool(me.contains(&p)))
            },
        ))?;
        let me = self.clone();
        reg.register(ClosureFunction::new(
            format!("{}_fence_name", self.name),
            1,
            DataType::Text,
            move |args| {
                let p = as_point(&args[0])?;
                Ok(match me.first_containing(&p) {
                    Some(f) => Value::text(f.name.clone()),
                    None => Value::text(""),
                })
            },
        ))?;
        Ok(())
    }
}

/// Factory for the enter/leave event operator.
pub struct GeofenceEventsFactory {
    /// The fences to track.
    pub set: Arc<GeofenceSet>,
    /// Column identifying the tracked object (e.g. `train_id`).
    pub key_field: String,
    /// Position column.
    pub pos_field: String,
}

impl OperatorFactory for GeofenceEventsFactory {
    fn name(&self) -> &str {
        "geofence_events"
    }

    fn create(
        &self,
        input: SchemaRef,
        _registry: &FunctionRegistry,
    ) -> nebula::Result<Box<dyn Operator>> {
        let key_col = input.index_of(&self.key_field).ok_or_else(|| {
            NebulaError::Plan(format!(
                "geofence_events: unknown key field '{}'",
                self.key_field
            ))
        })?;
        let pos_col = input.index_of(&self.pos_field).ok_or_else(|| {
            NebulaError::Plan(format!(
                "geofence_events: unknown pos field '{}'",
                self.pos_field
            ))
        })?;
        let output = input.extend(vec![
            Field::new("fence", DataType::Text),
            Field::new("event", DataType::Text),
        ]);
        Ok(Box::new(GeofenceEventsOp {
            set: self.set.clone(),
            key_col,
            pos_col,
            output,
            state: HashMap::new(),
        }))
    }
}

/// Emits a record per fence transition: `event` is `"enter"` or
/// `"leave"`, `fence` names the fence.
#[derive(Clone)]
struct GeofenceEventsOp {
    set: Arc<GeofenceSet>,
    key_col: usize,
    pos_col: usize,
    output: SchemaRef,
    /// Per key: the fence (by index) the object is currently inside.
    state: HashMap<i64, Option<usize>>,
}

impl Operator for GeofenceEventsOp {
    fn name(&self) -> &str {
        "geofence_events"
    }

    fn output_schema(&self) -> SchemaRef {
        self.output.clone()
    }

    fn process(&mut self, buf: RecordBuffer, out: &mut Vec<StreamMessage>) -> nebula::Result<()> {
        let mut emitted = Vec::new();
        for rec in buf.records() {
            let key = rec
                .get(self.key_col)
                .and_then(Value::as_int)
                .ok_or_else(|| NebulaError::Eval("geofence_events: non-int key".into()))?;
            let p = match rec.get(self.pos_col) {
                Some(v) if !v.is_null() => as_point(v)?,
                _ => continue,
            };
            let now: Option<usize> = self.set.fences.iter().position(|f| f.contains(&p));
            let before = self.state.get(&key).copied().flatten();
            if now != before {
                if let Some(b) = before {
                    let mut values = rec.values().to_vec();
                    values.push(Value::text(self.set.fences[b].name.clone()));
                    values.push(Value::text("leave"));
                    emitted.push(Record::new(values));
                }
                if let Some(n) = now {
                    let mut values = rec.values().to_vec();
                    values.push(Value::text(self.set.fences[n].name.clone()));
                    values.push(Value::text("enter"));
                    emitted.push(Record::new(values));
                }
                self.state.insert(key, now);
            }
        }
        if !emitted.is_empty() {
            out.push(StreamMessage::Data(RecordBuffer::new(
                self.output.clone(),
                emitted,
            )));
        }
        Ok(())
    }

    fn snapshot(&self) -> nebula::Result<Box<dyn Operator>> {
        Ok(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::assert_snapshot_resumes;
    use nebula::prelude::*;

    fn fences() -> Arc<GeofenceSet> {
        GeofenceSet::new(
            "zones",
            vec![
                (
                    "west".to_string(),
                    Geometry::Circle {
                        center: Point::new(4.30, 50.85),
                        radius: 900.0,
                    },
                ),
                (
                    "east".to_string(),
                    Geometry::Circle {
                        center: Point::new(4.40, 50.85),
                        radius: 900.0,
                    },
                ),
            ],
        )
    }

    fn schema() -> SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("train_id", DataType::Int),
            ("pos", DataType::Point),
        ])
    }

    fn rec(ts: i64, id: i64, x: f64, y: f64) -> Record {
        Record::new(vec![
            Value::Timestamp(ts),
            Value::Int(id),
            Value::Point { x, y },
        ])
    }

    #[test]
    fn fence_contains_with_bbox_prune() {
        let set = fences();
        assert!(set.contains(&Point::new(4.301, 50.851)));
        assert!(!set.contains(&Point::new(4.35, 50.85)), "between fences");
        assert_eq!(
            set.first_containing(&Point::new(4.40, 50.85)).unwrap().name,
            "east"
        );
    }

    #[test]
    fn registered_functions_work() {
        let mut reg = FunctionRegistry::with_builtins();
        fences().register(&mut reg).unwrap();
        let f = reg.get("in_zones").unwrap();
        assert_eq!(
            f.invoke(&[Value::Point { x: 4.30, y: 50.85 }]).unwrap(),
            Value::Bool(true)
        );
        let n = reg.get("zones_fence_name").unwrap();
        assert_eq!(
            n.invoke(&[Value::Point { x: 4.40, y: 50.85 }]).unwrap(),
            Value::text("east")
        );
        assert_eq!(
            n.invoke(&[Value::Point { x: 0.0, y: 0.0 }]).unwrap(),
            Value::text("")
        );
    }

    #[test]
    fn events_on_transitions_only() {
        let factory = GeofenceEventsFactory {
            set: fences(),
            key_field: "train_id".into(),
            pos_field: "pos".into(),
        };
        let reg = FunctionRegistry::with_builtins();
        let mut op = factory.create(schema(), &reg).unwrap();
        let mut out = Vec::new();
        // Outside -> west (enter), stay, leave to gap, enter east.
        op.process(
            RecordBuffer::new(
                schema(),
                vec![
                    rec(1, 7, 4.20, 50.85),  // outside
                    rec(2, 7, 4.301, 50.85), // enter west
                    rec(3, 7, 4.302, 50.85), // still inside: no event
                    rec(4, 7, 4.35, 50.85),  // leave west
                    rec(5, 7, 4.401, 50.85), // enter east
                ],
            ),
            &mut out,
        )
        .unwrap();
        let events: Vec<(String, String)> = out
            .iter()
            .filter_map(|m| match m {
                StreamMessage::Data(b) => Some(b.records().to_vec()),
                _ => None,
            })
            .flatten()
            .map(|r| {
                (
                    r.get(3).unwrap().as_text().unwrap().to_string(),
                    r.get(4).unwrap().as_text().unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(
            events,
            vec![
                ("west".to_string(), "enter".to_string()),
                ("west".to_string(), "leave".to_string()),
                ("east".to_string(), "enter".to_string()),
            ]
        );
    }

    #[test]
    fn events_snapshot_resumes_identically() {
        let factory = GeofenceEventsFactory {
            set: fences(),
            key_field: "train_id".into(),
            pos_field: "pos".into(),
        };
        let mut op = factory
            .create(schema(), &FunctionRegistry::with_builtins())
            .unwrap();
        // Train 7 inside west, train 8 outside at the snapshot.
        let mut out = Vec::new();
        op.process(
            RecordBuffer::new(
                schema(),
                vec![rec(1, 7, 4.301, 50.85), rec(1, 8, 4.20, 50.85)],
            ),
            &mut out,
        )
        .unwrap();
        let rest = [
            rec(2, 7, 4.302, 50.85), // still inside: no event
            rec(2, 8, 4.401, 50.85), // enter east
            rec(3, 7, 4.35, 50.85),  // leave west
        ];
        let rows = assert_snapshot_resumes(op.as_mut(), &schema(), &rest);
        let events: Vec<&str> = rows
            .iter()
            .map(|r| r.get(4).unwrap().as_text().unwrap())
            .collect();
        assert_eq!(
            events,
            ["enter", "leave"],
            "the copy remembers train 7 is inside"
        );
    }

    #[test]
    fn separate_keys_tracked_independently() {
        let factory = GeofenceEventsFactory {
            set: fences(),
            key_field: "train_id".into(),
            pos_field: "pos".into(),
        };
        let reg = FunctionRegistry::with_builtins();
        let mut op = factory.create(schema(), &reg).unwrap();
        let mut out = Vec::new();
        op.process(
            RecordBuffer::new(
                schema(),
                vec![rec(1, 1, 4.301, 50.85), rec(2, 2, 4.301, 50.85)],
            ),
            &mut out,
        )
        .unwrap();
        let count: usize = out
            .iter()
            .filter_map(|m| match m {
                StreamMessage::Data(b) => Some(b.len()),
                _ => None,
            })
            .sum();
        assert_eq!(count, 2, "one enter per train");
    }

    #[test]
    fn factory_validates_fields() {
        let factory = GeofenceEventsFactory {
            set: fences(),
            key_field: "nope".into(),
            pos_field: "pos".into(),
        };
        let reg = FunctionRegistry::with_builtins();
        assert!(factory.create(schema(), &reg).is_err());
    }
}
