//! Topology modelling and operator placement.
//!
//! NebulaStream runs queries over a hierarchy of sensor, edge and cloud
//! nodes, pushing operators toward the data sources to cut egress. This
//! module models that: a tree topology with link costs, placement
//! strategies (edge-first vs. cloud-only), a per-stage byte measurement
//! harness, and network-cost evaluation — the quantities behind the
//! paper's "process at the edge, reduce reliance on connectivity" claim.
//! Node churn is handled by incremental re-placement (cf. Chaudhary et
//! al., ICDE 2025).

use crate::error::{NebulaError, Result};
use crate::expr::FunctionRegistry;
use crate::ops::Operator;
use crate::preagg::{edge_split, CloudRole};
use crate::query::{compile, liveness, Query};
use crate::record::StreamMessage;
use crate::runtime::{drive, LOCAL_ORIGIN};
use crate::schema::ReadSet;
use crate::source::{Source, SourceDriver, Stamped, WatermarkStrategy};
use std::collections::HashMap;
use std::ops::Range;

/// A node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Node tiers, ordered from data source to data centre.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A sensor/device producing data (train sensor bus).
    Sensor,
    /// An onboard/trackside edge processor (the paper's Intel Atom box).
    Edge,
    /// The cloud/coordinator tier.
    Cloud,
}

/// A compute node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Identifier.
    pub id: NodeId,
    /// Human-readable name.
    pub name: String,
    /// Tier.
    pub kind: NodeKind,
    /// Parallel operator slots (capacity model).
    pub cpu_slots: u32,
}

/// A directed link from a child node up toward the cloud.
#[derive(Debug, Clone)]
pub struct Link {
    /// Lower (child) endpoint.
    pub from: NodeId,
    /// Upper (parent) endpoint.
    pub to: NodeId,
    /// Bandwidth in megabits per second.
    pub bandwidth_mbps: f64,
    /// One-way latency in milliseconds.
    pub latency_ms: f64,
}

/// A tree topology rooted at a cloud node.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    parent: HashMap<NodeId, usize>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a node.
    pub fn add_node(&mut self, name: impl Into<String>, kind: NodeKind, cpu_slots: u32) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            name: name.into(),
            kind,
            cpu_slots,
        });
        id
    }

    /// Connects `child` upward to `parent`.
    pub fn connect(&mut self, child: NodeId, parent: NodeId, bandwidth_mbps: f64, latency_ms: f64) {
        let idx = self.links.len();
        self.links.push(Link {
            from: child,
            to: parent,
            bandwidth_mbps,
            latency_ms,
        });
        self.parent.insert(child, idx);
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// The cloud root (first cloud node).
    pub fn cloud(&self) -> Option<NodeId> {
        self.nodes
            .iter()
            .find(|n| n.kind == NodeKind::Cloud)
            .map(|n| n.id)
    }

    /// Link indices on the upward path `from → to` (`to` must be an
    /// ancestor).
    pub fn path_up(&self, from: NodeId, to: NodeId) -> Result<Vec<usize>> {
        let mut path = Vec::new();
        let mut cur = from;
        while cur != to {
            let idx = *self.parent.get(&cur).ok_or_else(|| {
                NebulaError::Plan(format!(
                    "no path from {} to {}",
                    self.node(from).name,
                    self.node(to).name
                ))
            })?;
            path.push(idx);
            cur = self.links[idx].to;
        }
        Ok(path)
    }

    /// The node `node` links up to, if it has one.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent.get(&node).map(|&idx| self.links[idx].to)
    }

    /// First ancestor (inclusive) of `from` with the given kind.
    pub fn first_ancestor_of_kind(&self, from: NodeId, kind: NodeKind) -> Option<NodeId> {
        let mut cur = from;
        loop {
            if self.node(cur).kind == kind {
                return Some(cur);
            }
            match self.parent.get(&cur) {
                Some(idx) => cur = self.links[*idx].to,
                None => return None,
            }
        }
    }

    /// Removes a node (simulating churn): its children re-attach to its
    /// parent. Returns false when the node had no parent (cannot remove
    /// the root this way).
    pub fn fail_node(&mut self, failed: NodeId) -> bool {
        let Some(&up_idx) = self.parent.get(&failed) else {
            return false;
        };
        let new_parent = self.links[up_idx].to;
        let (bw, lat) = (
            self.links[up_idx].bandwidth_mbps,
            self.links[up_idx].latency_ms,
        );
        // Re-attach children.
        let child_links: Vec<usize> = self
            .links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.to == failed)
            .map(|(i, _)| i)
            .collect();
        for idx in child_links {
            self.links[idx].to = new_parent;
            // Serial hop removed: combine costs pessimistically.
            self.links[idx].bandwidth_mbps = self.links[idx].bandwidth_mbps.min(bw);
            self.links[idx].latency_ms += lat;
        }
        self.parent.remove(&failed);
        true
    }

    /// The standard demo deployment: sensors → onboard edge → cloud.
    pub fn train_fleet(num_trains: usize) -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let cloud = t.add_node("cloud", NodeKind::Cloud, 64);
        let mut sensors = Vec::with_capacity(num_trains);
        for i in 0..num_trains {
            let edge = t.add_node(format!("train-{i}-edge"), NodeKind::Edge, 2);
            let sensor = t.add_node(format!("train-{i}-sensors"), NodeKind::Sensor, 1);
            t.connect(edge, cloud, 10.0, 40.0); // cellular uplink
            t.connect(sensor, edge, 100.0, 1.0); // onboard bus
            sensors.push(sensor);
        }
        (t, sensors)
    }
}

/// Where each pipeline stage runs. Stage 0 is the source; stage `i + 1`
/// is logical operator `i`; the final stage is the sink.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Node per stage (source, ops…, sink).
    pub stages: Vec<NodeId>,
}

/// Placement strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Push stateless operators onto the source node and stateful ones to
    /// the nearest edge; sink in the cloud. The NebulaMEOS deployment.
    EdgeFirst,
    /// Ship raw data to the cloud and run everything there. The baseline
    /// the paper argues against.
    CloudOnly,
}

/// Computes a placement for `query` with its source on `source_node`.
pub fn place(
    query: &Query,
    topo: &Topology,
    source_node: NodeId,
    strategy: PlacementStrategy,
) -> Result<Placement> {
    let cloud = topo
        .cloud()
        .ok_or_else(|| NebulaError::Plan("topology has no cloud node".into()))?;
    let mut stages = Vec::with_capacity(query.ops().len() + 2);
    stages.push(source_node);
    match strategy {
        PlacementStrategy::CloudOnly => {
            for _ in query.ops() {
                stages.push(cloud);
            }
        }
        PlacementStrategy::EdgeFirst => {
            let edge = topo
                .first_ancestor_of_kind(source_node, NodeKind::Edge)
                .unwrap_or(cloud);
            // Stateless stays where the data is, stateful goes to the
            // edge; once there, later stages never move back down (data
            // flows toward the cloud).
            let mut current = source_node;
            for op in query.ops() {
                if op.is_stateful() {
                    current = edge;
                }
                stages.push(current);
            }
        }
    }
    stages.push(cloud);
    Ok(Placement { stages })
}

/// A placed query plan, decided once by [`plan_placed`]: one pipeline
/// per hosted source, and the cloud as the last stage of all of them.
#[derive(Debug, Clone)]
pub struct PlacedPlan {
    /// Per pipeline, [`place`]'s placement, with what the cloud runs
    /// placed there.
    pub(crate) placements: Vec<Placement>,
    /// Every pipeline runs `ops[..pipe_ops]` (a split window as its edge
    /// partial).
    pub(crate) pipe_ops: usize,
    /// The logical operators the cloud runs (the split window's merge
    /// first).
    pub(crate) cloud_ops: Range<usize>,
    /// The cloud root.
    pub(crate) cloud: NodeId,
    /// What the cloud shares.
    pub(crate) role: CloudRole,
}

/// Plans one pipeline per source host in `hosts`: [`place`]s it and
/// splits it from the cloud ([`edge_split`]). A single pipeline with
/// nothing shared folds its trailing cloud-placed operators into the
/// cloud instead of a one-node relay hop.
pub fn plan_placed(
    query: &Query,
    topo: &Topology,
    hosts: &[NodeId],
    strategy: PlacementStrategy,
) -> Result<PlacedPlan> {
    let cloud = topo
        .cloud()
        .ok_or_else(|| NebulaError::Plan("topology has no cloud node".into()))?;
    let split = edge_split(query, strategy, hosts.len());
    let fold = hosts.len() == 1 && matches!(split.cloud, CloudRole::None);
    let mut pipe_ops = split.pipe_end;
    let mut placements = Vec::with_capacity(hosts.len());
    for &host in hosts {
        let mut placed = place(query, topo, host, strategy)?;
        let ops = &placed.stages[1..=pipe_ops];
        if fold {
            pipe_ops = ops.iter().rposition(|&n| n != cloud).map_or(0, |i| i + 1);
        }
        placed.stages[pipe_ops + 1..].fill(cloud);
        placements.push(placed);
    }
    let merge = matches!(split.cloud, CloudRole::Merge(_));
    Ok(PlacedPlan {
        placements,
        pipe_ops,
        cloud_ops: pipe_ops - usize::from(merge)..query.ops().len(),
        cloud,
        role: split.cloud,
    })
}

impl PlacedPlan {
    /// Per pipeline, where the source, each logical operator and the
    /// sink run.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Pipeline `pipe`'s stages as (node, logical operator count): stage
    /// 0 on the source node, possibly with no operators, then one stage
    /// per contiguous same-node run.
    pub fn stages(&self, pipe: usize) -> Vec<(NodeId, usize)> {
        let nodes = &self.placements[pipe].stages[..=self.pipe_ops];
        let mut stages = vec![(nodes[0], 0)];
        for &node in &nodes[1..] {
            match stages.last_mut().filter(|(n, _)| *n == node) {
                Some((_, count)) => *count += 1,
                None => stages.push((node, 1)),
            }
        }
        stages
    }

    /// Whether `node` is a hop endpoint on pipeline `pipe`'s frame route
    /// over `topo`, pass-through relays that host no operators included.
    pub fn route_crosses(&self, topo: &Topology, pipe: usize, node: NodeId) -> Result<bool> {
        for leg in self.placements[pipe].stages.windows(2) {
            for idx in topo.path_up(leg[0], leg[1])? {
                let link = &topo.links()[idx];
                if link.from == node || link.to == node {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Whether pipeline `pipe`'s stage 0 stands in for a crash of
    /// `node`: no stage runs there, but the pipeline's frames cross it.
    pub fn passes_through(&self, topo: &Topology, pipe: usize, node: NodeId) -> Result<bool> {
        let ops = 1..=self.pipe_ops;
        let hosted = (self.placements.iter()).any(|pl| pl.stages[ops.clone()].contains(&node));
        Ok(!hosted && self.route_crosses(topo, pipe, node)?)
    }

    /// The plan after `failed` dies and leaves `topo`
    /// ([`Topology::fail_node`]): its operators migrate to its parent
    /// ([`replace_after_failure`]). Returns the plan and how many moved.
    pub fn after_failure(&self, topo: &mut Topology, failed: NodeId) -> Result<(Self, usize)> {
        let parent = topo.parent(failed).ok_or_else(|| {
            NebulaError::Plan(format!(
                "cannot fail node '{}': it has no parent to migrate to",
                topo.node(failed).name
            ))
        })?;
        topo.fail_node(failed);
        let (placements, moved): (Vec<_>, Vec<_>) = (self.placements.iter())
            .map(|placed| replace_after_failure(placed, failed, parent))
            .unzip();
        let mut next = self.clone();
        next.placements = placements;
        Ok((next, moved.iter().sum()))
    }
}

/// Bytes observed leaving each pipeline stage (stage 0 = raw source).
#[derive(Debug, Clone)]
pub struct StageBytes {
    /// `stage_bytes[0]` is source bytes; `stage_bytes[i+1]` is bytes
    /// emitted by logical operator `i`.
    pub stage_bytes: Vec<u64>,
    /// Records per stage, same indexing.
    pub stage_records: Vec<u64>,
}

/// Runs the query over `source` once, measuring bytes/records crossing
/// every operator boundary — the input to network-cost evaluation. The
/// bytes of a boundary count only the columns read past it (the
/// plan's liveness), which is all a link placed there ships. The
/// source is polled through the executors' source stage, in rows and
/// without watermarks: a `buffer_size` of 0 reads as 1, and a source
/// that never becomes ready fails with an `Io` error instead of
/// hanging the measurement.
pub fn measure_stage_bytes(
    source: Box<dyn Source>,
    query: &Query,
    registry: &FunctionRegistry,
    buffer_size: usize,
) -> Result<StageBytes> {
    let width = source.schema().len();
    let plan = compile(query, source.schema(), registry)?;
    let mut ops = plan.operators;
    let live = liveness(&ops.iter().map(|op| op.as_ref()).collect::<Vec<_>>(), width);
    let n = ops.len();
    let mut bytes = vec![0u64; n + 1];
    let mut records = vec![0u64; n + 1];

    let mut driver = SourceDriver::new(
        source,
        WatermarkStrategy::None,
        None,
        LOCAL_ORIGIN,
        buffer_size,
        1,
    );
    while let Some(Stamped { msg, .. }) = driver.next_batch()? {
        bytes[0] += live_bytes(&msg, &live[0]);
        records[0] += msg.record_count() as u64;
        drive_stages(&mut ops, msg, &live, &mut bytes, &mut records)?;
    }
    drive_stages(
        &mut ops,
        StreamMessage::Eos,
        &live,
        &mut bytes,
        &mut records,
    )?;
    Ok(StageBytes {
        stage_bytes: bytes,
        stage_records: records,
    })
}

/// Drives one message through `ops` stage by stage, adding what leaves
/// operator `i` to `bytes[i + 1]` (its columns in `live[i + 1]`) and
/// `records[i + 1]`.
fn drive_stages(
    ops: &mut [Box<dyn Operator>],
    first: StreamMessage,
    live: &[ReadSet],
    bytes: &mut [u64],
    records: &mut [u64],
) -> Result<()> {
    let mut cur = vec![first];
    for i in 0..ops.len() {
        let mut next = Vec::new();
        for msg in cur {
            next.extend(drive(&mut ops[i..=i], msg)?);
        }
        for m in &next {
            bytes[i + 1] += live_bytes(m, &live[i + 1]);
            records[i + 1] += m.record_count() as u64;
        }
        cur = next;
    }
    Ok(())
}

/// The estimated bytes of `msg`'s columns in `live`.
fn live_bytes(msg: &StreamMessage, live: &ReadSet) -> u64 {
    let bytes = match msg {
        StreamMessage::Data(b) => (b.records().iter())
            .flat_map(|rec| rec.values().iter().enumerate())
            .filter(|&(col, _)| live.contains(col))
            .map(|(_, v)| v.est_bytes())
            .sum(),
        StreamMessage::Columnar(b) => (b.columns().iter().enumerate())
            .filter(|&(col, _)| live.contains(col))
            .map(|(_, c)| c.est_bytes())
            .sum(),
        StreamMessage::Watermark(_) | StreamMessage::Eos => 0,
    };
    bytes as u64
}

/// Network cost of running a placement: bytes crossing each link and the
/// end-to-end path latency.
#[derive(Debug, Clone)]
pub struct NetworkCost {
    /// Bytes per link index.
    pub bytes_per_link: Vec<u64>,
    /// Total bytes crossing any link.
    pub total_bytes: u64,
    /// Sum of one-way latencies along the stage path.
    pub path_latency_ms: f64,
    /// Bytes leaving the *edge tier* toward the cloud (the paper's
    /// scarce resource: the cellular uplink).
    pub cloud_uplink_bytes: u64,
}

/// Combines measured stage bytes with a placement over a topology.
pub fn network_cost(
    topo: &Topology,
    placement: &Placement,
    stages: &StageBytes,
) -> Result<NetworkCost> {
    if placement.stages.len() != stages.stage_bytes.len() + 1 {
        return Err(NebulaError::Plan(format!(
            "placement has {} stages, measurements {}",
            placement.stages.len(),
            stages.stage_bytes.len() + 1
        )));
    }
    let mut bytes_per_link = vec![0u64; topo.links().len()];
    let mut path_latency_ms = 0.0;
    let mut cloud_uplink = 0u64;
    for (i, w) in placement.stages.windows(2).enumerate() {
        let (from, to) = (w[0], w[1]);
        if from == to {
            continue;
        }
        let b = stages.stage_bytes[i];
        for idx in topo.path_up(from, to)? {
            bytes_per_link[idx] += b;
            path_latency_ms += topo.links()[idx].latency_ms;
            if topo.node(topo.links()[idx].to).kind == NodeKind::Cloud {
                cloud_uplink += b;
            }
        }
    }
    Ok(NetworkCost {
        total_bytes: bytes_per_link.iter().sum(),
        bytes_per_link,
        path_latency_ms,
        cloud_uplink_bytes: cloud_uplink,
    })
}

/// Re-places a query after a node failure: every stage assigned to the
/// failed node migrates to that node's former parent. Returns the new
/// placement and the number of migrated stages (the metric incremental
/// placement minimizes).
pub fn replace_after_failure(
    placement: &Placement,
    failed: NodeId,
    fallback: NodeId,
) -> (Placement, usize) {
    let mut migrated = 0;
    let stages = placement
        .stages
        .iter()
        .map(|&n| {
            if n == failed {
                migrated += 1;
                fallback
            } else {
                n
            }
        })
        .collect();
    (Placement { stages }, migrated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::ops::{Pattern, PatternStep};
    use crate::record::Record;
    use crate::schema::Schema;
    use crate::source::VecSource;
    use crate::value::{DataType, Value, MICROS_PER_SEC};
    use crate::window::{AggSpec, WindowAgg, WindowSpec};

    fn schema() -> crate::schema::SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("train", DataType::Int),
            ("speed", DataType::Float),
        ])
    }

    fn records(n: i64) -> Vec<Record> {
        (0..n)
            .map(|i| {
                Record::new(vec![
                    Value::Timestamp(i * MICROS_PER_SEC),
                    Value::Int(i % 3),
                    Value::Float((i % 100) as f64),
                ])
            })
            .collect()
    }

    fn demo_query() -> Query {
        Query::from("trains")
            .filter(col("speed").gt(lit(90.0))) // selective
            .window(
                vec![("train", col("train"))],
                WindowSpec::Tumbling {
                    size: 60 * MICROS_PER_SEC,
                },
                vec![WindowAgg::new("n", AggSpec::Count)],
            )
    }

    #[test]
    fn fleet_topology_structure() {
        let (topo, sensors) = Topology::train_fleet(6);
        assert_eq!(sensors.len(), 6);
        assert_eq!(topo.nodes().len(), 13);
        let cloud = topo.cloud().unwrap();
        for s in &sensors {
            let path = topo.path_up(*s, cloud).unwrap();
            assert_eq!(path.len(), 2, "sensor -> edge -> cloud");
        }
        let edge = topo
            .first_ancestor_of_kind(sensors[0], NodeKind::Edge)
            .unwrap();
        assert_eq!(topo.node(edge).kind, NodeKind::Edge);
    }

    #[test]
    fn edge_first_vs_cloud_only_placement() {
        let (topo, sensors) = Topology::train_fleet(1);
        let q = demo_query();
        let edge = place(&q, &topo, sensors[0], PlacementStrategy::EdgeFirst).unwrap();
        let cloud = place(&q, &topo, sensors[0], PlacementStrategy::CloudOnly).unwrap();
        assert_eq!(edge.stages.len(), 4); // source, filter, window, sink
                                          // Filter stays on the sensor; window moves to the edge.
        assert_eq!(edge.stages[1], sensors[0]);
        assert_eq!(topo.node(edge.stages[2]).kind, NodeKind::Edge);
        assert_eq!(topo.node(edge.stages[3]).kind, NodeKind::Cloud);
        // Cloud-only runs ops in the cloud.
        assert_eq!(topo.node(cloud.stages[1]).kind, NodeKind::Cloud);
    }

    #[test]
    fn edge_first_keeps_stateless_in_place_and_moves_stateful_to_the_edge() {
        let (topo, sensors) = Topology::train_fleet(1);
        let edge = topo
            .first_ancestor_of_kind(sensors[0], NodeKind::Edge)
            .unwrap();
        let cloud = topo.cloud().unwrap();
        let q = demo_query()
            .filter(col("n").gt(lit(0i64)))
            .cep(Pattern::new(
                "busy",
                vec![PatternStep::new("a", col("n").gt(lit(1i64)))],
                60 * MICROS_PER_SEC,
            ));
        let pl = place(&q, &topo, sensors[0], PlacementStrategy::EdgeFirst).unwrap();
        // source, filter, window, filter, CEP, sink
        assert_eq!(
            pl.stages,
            vec![sensors[0], sensors[0], edge, edge, edge, cloud]
        );
    }

    #[test]
    fn stage_bytes_decrease_after_selective_filter() {
        let reg = FunctionRegistry::with_builtins();
        let src = Box::new(VecSource::new(schema(), records(1000)));
        let sb = measure_stage_bytes(src, &demo_query(), &reg, 128).unwrap();
        assert_eq!(sb.stage_records[0], 1000);
        assert!(sb.stage_records[1] < 200, "filter keeps ~9%");
        assert!(sb.stage_bytes[1] < sb.stage_bytes[0] / 5);
        assert!(sb.stage_records[2] <= sb.stage_records[1]);
    }

    /// Runs `measure_stage_bytes` on its own thread; a result that does
    /// not arrive within the deadline is a hang and fails the test.
    fn measure_within_deadline(source: Box<dyn Source>, buffer_size: usize) -> Result<StageBytes> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let reg = FunctionRegistry::with_builtins();
            let _ = tx.send(measure_stage_bytes(
                source,
                &demo_query(),
                &reg,
                buffer_size,
            ));
        });
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("measure_stage_bytes hung")
    }

    #[test]
    fn stage_bytes_of_a_never_ready_source_fail_instead_of_hanging() {
        struct NeverReady;
        impl Source for NeverReady {
            fn schema(&self) -> crate::schema::SchemaRef {
                schema()
            }
            fn poll(&mut self, _max: usize) -> Result<crate::source::SourceBatch> {
                Ok(crate::source::SourceBatch::Idle)
            }
        }
        match measure_within_deadline(Box::new(NeverReady), 128) {
            Err(NebulaError::Io(msg)) => assert!(msg.contains("stayed idle"), "{msg}"),
            other => panic!("expected the idle-source error, got {other:?}"),
        }
    }

    #[test]
    fn stage_bytes_read_a_zero_buffer_size_as_one() {
        let src = Box::new(VecSource::new(schema(), records(100)));
        let sb = measure_within_deadline(src, 0).unwrap();
        assert_eq!(sb.stage_records[0], 100);
    }

    #[test]
    fn edge_placement_cuts_uplink_bytes() {
        let (topo, sensors) = Topology::train_fleet(1);
        let reg = FunctionRegistry::with_builtins();
        let q = demo_query();
        let sb = measure_stage_bytes(
            Box::new(VecSource::new(schema(), records(1000))),
            &q,
            &reg,
            128,
        )
        .unwrap();
        let edge_pl = place(&q, &topo, sensors[0], PlacementStrategy::EdgeFirst).unwrap();
        let cloud_pl = place(&q, &topo, sensors[0], PlacementStrategy::CloudOnly).unwrap();
        let edge_cost = network_cost(&topo, &edge_pl, &sb).unwrap();
        let cloud_cost = network_cost(&topo, &cloud_pl, &sb).unwrap();
        assert!(
            edge_cost.cloud_uplink_bytes < cloud_cost.cloud_uplink_bytes / 5,
            "edge {} vs cloud {}",
            edge_cost.cloud_uplink_bytes,
            cloud_cost.cloud_uplink_bytes
        );
        assert!(edge_cost.total_bytes < cloud_cost.total_bytes);
    }

    #[test]
    fn failure_replacement_migrates_stages() {
        let (mut topo, sensors) = Topology::train_fleet(1);
        let q = demo_query();
        let pl = place(&q, &topo, sensors[0], PlacementStrategy::EdgeFirst).unwrap();
        let edge = topo
            .first_ancestor_of_kind(sensors[0], NodeKind::Edge)
            .unwrap();
        let cloud = topo.cloud().unwrap();
        assert!(topo.fail_node(edge));
        let (new_pl, migrated) = replace_after_failure(&pl, edge, cloud);
        assert!(migrated >= 1);
        assert!(!new_pl.stages.contains(&edge));
        // Sensor now reaches the cloud directly.
        assert_eq!(topo.path_up(sensors[0], cloud).unwrap().len(), 1);
    }

    #[test]
    fn cannot_fail_root() {
        let (mut topo, _) = Topology::train_fleet(1);
        let cloud = topo.cloud().unwrap();
        assert!(!topo.fail_node(cloud));
    }
}
