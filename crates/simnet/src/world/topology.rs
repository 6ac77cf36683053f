//! Node slots, positions and the spatial index.
//!
//! The topology layer owns every node's identity (name, compiled motion
//! plan, RNG stream, agent) and its [`RadioState`], and answers "who is
//! where" questions. Position lookups are pure reads of the compiled plans; the
//! [`SpatialGrid`] accelerates *radius* queries and is refreshed lazily
//! behind a `RefCell` so read-only world APIs keep their `&self` signatures.

use std::cell::RefCell;

use super::grid::{Entry, SpatialGrid};
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

    /// Brings the spatial index up to `now`: re-buckets every walker whose
    /// plan has left its cell. Runs before every [`Topology::for_each_near`].
    pub(crate) fn refresh_grid(&self, now: SimTime) {
        let mut grid = self.grid.borrow_mut();
        grid.refresh(now, |id| &self.nodes[id.as_raw() as usize].plan);
    }

    /// Walks the index around `center` ([`SpatialGrid::for_each_near`]):
    /// every node that may be within `radius` metres, once each, in no
    /// particular order. The index must have been refreshed to the instant
    /// the caller range-checks at.
    pub(crate) fn for_each_near(&self, center: Point, radius: f64, visit: impl FnMut(&Entry)) {
        self.grid.borrow().for_each_near(center, radius, visit);
    }

    /// Number of slots in the grid's cell table.
    #[cfg(test)]
    pub(crate) fn grid_slots(&self) -> usize {
        self.grid.borrow().slot_count()
    }
}
