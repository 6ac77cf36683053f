//! Node slots, positions and the spatial index.
//!
//! The topology layer owns every node's identity (name, compiled motion
//! plan, RNG stream, agent) and its [`RadioState`], and answers "who is
//! where" questions. Position lookups are pure reads of the compiled plans; the
//! [`SpatialGrid`] accelerates *radius* queries and is refreshed lazily
//! behind a `RefCell` so read-only world APIs keep their `&self` signatures.

use std::cell::RefCell;

use super::grid::SpatialGrid;
use crate::geometry::Point;
use crate::mobility::MotionPlan;
use crate::node::{NodeAgent, NodeId};
use crate::radio::RadioState;
use crate::rng::SimRng;
use crate::time::SimTime;

/// Everything the world knows about one node.
pub(crate) struct NodeSlot {
    pub(crate) id: NodeId,
    pub(crate) name: String,
    pub(crate) plan: MotionPlan,
    pub(crate) radio: RadioState,
    pub(crate) agent: Option<Box<dyn NodeAgent>>,
    pub(crate) rng: SimRng,
    /// Incarnation counter, bumped on every crash. Timers, inquiries and
    /// connection attempts record the epoch they were created in and are
    /// dropped when it no longer matches, so events from a previous life
    /// never leak into a restarted agent.
    pub(crate) epoch: u64,
}

/// The node table plus the spatial index over node positions.
pub(crate) struct Topology {
    pub(crate) nodes: Vec<NodeSlot>,
    grid: RefCell<SpatialGrid>,
}

impl Topology {
    pub(crate) fn new(grid_cell_m: f64) -> Self {
        Topology {
            nodes: Vec::new(),
            grid: RefCell::new(SpatialGrid::new(grid_cell_m)),
        }
    }

    /// Side length of one grid cell in metres.
    pub(crate) fn grid_cell_m(&self) -> f64 {
        self.grid.borrow().cell_m()
    }

    /// Adds a node (ids are dense and assigned in insertion order).
    pub(crate) fn add(&mut self, slot: NodeSlot, now: SimTime) {
        let id = slot.id;
        self.grid.get_mut().insert(id, &slot.plan, now);
        self.nodes.push(slot);
    }

    pub(crate) fn slot(&self, node: NodeId) -> Option<&NodeSlot> {
        self.nodes.get(node.as_raw() as usize)
    }

    pub(crate) fn slot_mut(&mut self, node: NodeId) -> Option<&mut NodeSlot> {
        self.nodes.get_mut(node.as_raw() as usize)
    }

    /// Position of a node at `now`, if the node exists.
    pub(crate) fn position_of(&self, node: NodeId, now: SimTime) -> Option<Point> {
        self.slot(node).map(|s| s.plan.position_at(now))
    }

    /// Marks a node dead, drops it from the spatial index and bumps its
    /// epoch so pending events from this life are discarded.
    pub(crate) fn power_off(&mut self, node: NodeId) {
        self.grid.get_mut().remove(node);
        if let Some(slot) = self.slot_mut(node) {
            slot.radio.power_off();
            slot.epoch += 1;
        }
    }

    /// Marks a crashed node alive again ([`RadioState::power_on`]) and
    /// re-enters it into the spatial index at its current planned position.
    pub(crate) fn power_on(&mut self, node: NodeId, now: SimTime) {
        let Some(slot) = self.nodes.get_mut(node.as_raw() as usize) else {
            return;
        };
        slot.radio.power_on();
        self.grid.get_mut().reinsert(node, &slot.plan, now);
    }

    /// Node ids in every grid cell intersecting the disk of `radius` metres
    /// around `center`, cleared into and returned through a caller-owned
    /// scratch `Vec` so the per-query candidate allocation disappears from
    /// the inquiry/neighbour hot paths. Results are sorted ascending: a
    /// superset of the nodes truly in range (callers apply the exact
    /// predicate), byte-identical to a full scan once filtered, because
    /// candidate order matches node-id order.
    pub(crate) fn candidates_within_into(&self, center: Point, radius: f64, now: SimTime, out: &mut Vec<NodeId>) {
        let mut grid = self.grid.borrow_mut();
        grid.refresh(now, |id| &self.nodes[id.as_raw() as usize].plan);
        grid.query_into(center, radius, out);
    }
}
