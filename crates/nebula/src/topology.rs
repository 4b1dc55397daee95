//! Topology modelling and operator placement.
//!
//! NebulaStream runs queries over a hierarchy of sensor, edge and cloud
//! nodes, pushing operators toward the data sources to cut egress. This
//! module models that: a tree topology with link bandwidths and
//! latencies, the placement strategies (edge-first vs. cloud-only), and
//! [`plan_placed`], which decides once where every stage of a placed
//! query runs. What a placement costs is measured, not estimated: the
//! [`ClusterReport`](crate::cluster::ClusterReport) of
//! [`ClusterEnvironment::run_placed`](crate::cluster::ClusterEnvironment::run_placed)
//! carries the bytes that crossed every link, the uplink included —
//! the quantity behind the paper's "process at the edge, reduce
//! reliance on connectivity" claim. Node churn is handled by
//! incremental re-placement ([`PlacedPlan::after_failure`]; cf.
//! Chaudhary et al., ICDE 2025).

use crate::error::{NebulaError, Result};
use crate::preagg::{edge_split, CloudRole};
use crate::query::Query;
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

/// `strategy`'s node for the source on `host`, each of `query`'s
/// operators and the sink, before [`plan_placed`] splits the pipeline
/// from the cloud.
fn place(
    query: &Query,
    topo: &Topology,
    host: NodeId,
    cloud: NodeId,
    strategy: PlacementStrategy,
) -> Placement {
    let edge = topo
        .first_ancestor_of_kind(host, NodeKind::Edge)
        .unwrap_or(cloud);
    let mut stages = Vec::with_capacity(query.ops().len() + 2);
    stages.push(host);
    // Stateless stays where the data is, stateful goes to the edge; once
    // there, later stages never move back down (data flows toward the
    // cloud).
    let mut current = host;
    for op in query.ops() {
        current = match strategy {
            PlacementStrategy::CloudOnly => cloud,
            PlacementStrategy::EdgeFirst if op.is_stateful() => edge,
            PlacementStrategy::EdgeFirst => current,
        };
        stages.push(current);
    }
    stages.push(cloud);
    Placement { stages }
}

/// A placed query plan, decided once by [`plan_placed`]: one pipeline
/// per hosted source, and the cloud as the last stage of all of them.
#[derive(Debug, Clone)]
pub struct PlacedPlan {
    /// Per pipeline, the strategy's placement, with what the cloud runs
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

/// Plans one pipeline per source host in `hosts`: places it by
/// `strategy` and splits it from the cloud ([`edge_split`]). A single
/// pipeline with nothing shared folds its trailing cloud-placed
/// operators into the cloud instead of a one-node relay hop.
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
        let mut placed = place(query, topo, host, cloud, strategy);
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
    /// ([`Topology::fail_node`]): every stage placed on it migrates to its
    /// parent. Returns the plan and how many stages moved (the number
    /// incremental re-placement minimizes).
    pub fn after_failure(&self, topo: &mut Topology, failed: NodeId) -> Result<(Self, usize)> {
        let parent = topo.parent(failed).ok_or_else(|| {
            NebulaError::Plan(format!(
                "cannot fail node '{}': it has no parent to migrate to",
                topo.node(failed).name
            ))
        })?;
        topo.fail_node(failed);
        let mut next = self.clone();
        let stages = next.placements.iter_mut().flat_map(|pl| &mut pl.stages);
        let mut moved = 0;
        for node in stages.filter(|node| **node == failed) {
            *node = parent;
            moved += 1;
        }
        Ok((next, moved))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterEnvironment, ClusterMetrics};
    use crate::expr::{col, lit};
    use crate::ops::{Pattern, PatternStep};
    use crate::record::Record;
    use crate::schema::Schema;
    use crate::sink::CollectingSink;
    use crate::source::{VecSource, WatermarkStrategy};
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

    /// The placement of `query`'s one pipeline, hosted on `host`.
    fn placement(
        topo: &Topology,
        host: NodeId,
        query: &Query,
        strategy: PlacementStrategy,
    ) -> Placement {
        let plan = plan_placed(query, topo, &[host], strategy).unwrap();
        plan.placements()[0].clone()
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
        let edge = placement(&topo, sensors[0], &q, PlacementStrategy::EdgeFirst);
        let cloud = placement(&topo, sensors[0], &q, PlacementStrategy::CloudOnly);
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
        // A CEP first: nothing splits, so the one pipeline keeps the plan.
        let q = Query::from("trains")
            .filter(col("speed").gt(lit(90.0)))
            .cep(Pattern::new(
                "busy",
                vec![PatternStep::new("a", col("speed").gt(lit(95.0)))],
                60 * MICROS_PER_SEC,
            ))
            .filter(col("train").gt(lit(0i64)));
        let pl = placement(&topo, sensors[0], &q, PlacementStrategy::EdgeFirst);
        // source, filter, CEP, filter, sink
        assert_eq!(pl.stages, vec![sensors[0], sensors[0], edge, edge, cloud]);
    }

    /// The link traffic of `demo_query` over 1 000 rows on one train.
    fn placed_traffic(strategy: PlacementStrategy) -> ClusterMetrics {
        let (topo, sensors) = Topology::train_fleet(1);
        let mut env = ClusterEnvironment::new(topo);
        let source = VecSource::new(schema(), records(1000));
        env.add_source(
            "trains",
            sensors[0],
            Box::new(source),
            WatermarkStrategy::None,
        );
        let (mut sink, _) = CollectingSink::new();
        let report = env.run_placed(&demo_query(), strategy, &mut sink);
        report.unwrap().cluster
    }

    #[test]
    fn stage_bytes_decrease_after_selective_filter() {
        // `train_fleet(1)`'s link 1 is the sensors → edge bus: under
        // `EdgeFirst` it carries what leaves the filter, under
        // `CloudOnly` the raw stream.
        let filtered = &placed_traffic(PlacementStrategy::EdgeFirst).links[1];
        let raw = &placed_traffic(PlacementStrategy::CloudOnly).links[1];
        assert_eq!(raw.records, 1000);
        assert!(filtered.records < 200, "filter keeps ~9%");
        assert!(filtered.bytes < raw.bytes / 5);
    }

    #[test]
    fn edge_placement_cuts_uplink_bytes() {
        let edge = placed_traffic(PlacementStrategy::EdgeFirst);
        let cloud = placed_traffic(PlacementStrategy::CloudOnly);
        assert!(
            edge.uplink_bytes < cloud.uplink_bytes / 5,
            "edge {} vs cloud {}",
            edge.uplink_bytes,
            cloud.uplink_bytes
        );
        let total = |m: &ClusterMetrics| -> u64 { m.links.iter().map(|l| l.bytes).sum() };
        assert!(total(&edge) < total(&cloud));
    }

    #[test]
    fn failure_replacement_migrates_stages() {
        let (mut topo, sensors) = Topology::train_fleet(1);
        let q = demo_query();
        let plan = plan_placed(&q, &topo, &sensors, PlacementStrategy::EdgeFirst).unwrap();
        let edge = topo
            .first_ancestor_of_kind(sensors[0], NodeKind::Edge)
            .unwrap();
        let cloud = topo.cloud().unwrap();
        let (next, migrated) = plan.after_failure(&mut topo, edge).unwrap();
        assert!(migrated >= 1);
        assert!(!next.placements()[0].stages.contains(&edge));
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
