//! Simulation metrics.
//!
//! The experiment runners (E1–E12) summarise their results from these
//! counters: inquiry activity, connection attempts and outcomes, traffic
//! volume and link breakage. Counters exist per node and are also aggregated
//! globally. [`Counters`] is declared through
//! [`counter_table!`](crate::counter_table).

use serde::{Deserialize, Serialize};

use crate::faults::FaultStats;
use crate::node::NodeId;
use crate::radio::RadioTech;
use crate::telemetry::{Histogram, Telemetry};

crate::counter_table! {
    /// Counters for one node (or the global aggregate), mirrored as the
    /// `world/*` series — the one catalogue both engines sample.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct Counters in "world" {
        /// Device-discovery inquiries started.
        pub inquiries_started: u64 => counter "inquiries_started",
        /// Devices returned across all inquiry results.
        pub inquiry_hits: u64 => counter "inquiry_hits",
        /// Connection attempts initiated.
        pub connect_attempts: u64 => counter "connect_attempts",
        /// Connection attempts that failed (fault, out of range or rejection).
        pub connect_failures: u64 => counter "connect_failures",
        /// Connections successfully established.
        pub connects_established: u64 => counter "connects_established",
        /// Messages passed to the radio for transmission.
        pub messages_sent: u64 => counter "messages_sent",
        /// Payload bytes passed to the radio for transmission.
        pub bytes_sent: u64 => counter "bytes_sent",
        /// Messages delivered to the peer.
        pub messages_delivered: u64 => counter "messages_delivered",
        /// Messages lost because the link broke before delivery.
        pub messages_lost: u64 => counter "messages_lost",
        /// Established links that broke (out of range or forced).
        pub links_broken: u64 => counter "links_broken",
        /// Link-quality samples taken.
        pub quality_samples: u64,
    }
}

impl Counters {
    /// Fraction of sent messages that were delivered, or 1.0 if none were sent.
    pub fn delivery_rate(&self) -> f64 {
        if self.messages_sent == 0 {
            1.0
        } else {
            self.messages_delivered as f64 / self.messages_sent as f64
        }
    }
}

/// Writes one sample of the series both engines record — `world/*` and
/// `faults/*` — into the recorder: one catalogue, whichever engine ran.
/// `per_tech` is `(messages, bytes)` sent by [`RadioTech::index`]; `payload`
/// is for an engine that does not observe payload sizes as they are sent.
pub(crate) fn export_world_frame(
    tel: &mut Telemetry,
    nodes_alive: usize,
    links_open: f64,
    counters: &Counters,
    faults: &FaultStats,
    per_tech: &[(u64, u64); 3],
    payload: Option<Histogram>,
) {
    tel.set_gauge("world", "nodes_alive", None, nodes_alive as f64);
    tel.set_gauge("world", "links_open", None, links_open);
    counters.export(tel);
    tel.set_gauge("world", "delivery_rate", None, counters.delivery_rate());
    faults.export(tel);
    for (tech, &(messages, bytes)) in RadioTech::ALL.iter().zip(per_tech) {
        if messages == 0 && bytes == 0 {
            continue; // untouched technologies carry no series
        }
        let label = tech.short_name();
        tel.set_counter("world", "messages_sent_tech", Some(label), messages);
        tel.set_counter("world", "bytes_sent_tech", Some(label), bytes);
    }
    if let Some(payload) = payload.filter(|hist| hist.count() > 0) {
        tel.set_histogram("world", "payload_bytes", None, payload);
    }
}

/// Metrics store for a whole simulation world.
///
/// Per-node counters live in a dense vector indexed by the node id's raw
/// value (world node ids are allocated sequentially), so the record calls on
/// the event-loop hot path are an index, not a tree walk. `None` marks a
/// node that never recorded anything, preserving the "only active nodes"
/// semantics of [`Metrics::iter_nodes`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Metrics {
    global: Counters,
    per_node: Vec<Option<Counters>>,
    /// `(messages, bytes)` sent per technology, indexed by `RadioTech::index`.
    per_tech: [(u64, u64); 3],
}

impl Metrics {
    /// Creates an empty metrics store.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// The aggregate counters across all nodes.
    pub fn global(&self) -> &Counters {
        &self.global
    }

    /// Counters for one node (zeroed counters if the node never did anything).
    pub fn node(&self, node: NodeId) -> Counters {
        self.per_node
            .get(node.as_raw() as usize)
            .and_then(|c| *c)
            .unwrap_or_default()
    }

    /// Iterates over the counters of every node that recorded anything, in
    /// ascending node-id order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &Counters)> {
        self.per_node
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (NodeId::from_raw(i as u64), c)))
    }

    /// Messages sent per radio technology.
    pub fn messages_for_tech(&self, tech: RadioTech) -> u64 {
        self.per_tech[tech.index()].0
    }

    /// Payload bytes sent per radio technology.
    pub fn bytes_for_tech(&self, tech: RadioTech) -> u64 {
        self.per_tech[tech.index()].1
    }

    /// `(messages, bytes)` sent per technology, by [`RadioTech::index`].
    pub(crate) fn per_tech(&self) -> &[(u64, u64); 3] {
        &self.per_tech
    }

    fn node_mut(&mut self, node: NodeId) -> &mut Counters {
        let idx = node.as_raw() as usize;
        if idx >= self.per_node.len() {
            self.per_node.resize(idx + 1, None);
        }
        self.per_node[idx].get_or_insert_with(Counters::default)
    }

    /// Records an inquiry being started by `node`.
    pub fn record_inquiry_started(&mut self, node: NodeId) {
        self.global.inquiries_started += 1;
        self.node_mut(node).inquiries_started += 1;
    }

    /// Records the number of devices an inquiry returned.
    pub fn record_inquiry_hits(&mut self, node: NodeId, hits: u64) {
        self.global.inquiry_hits += hits;
        self.node_mut(node).inquiry_hits += hits;
    }

    /// Records a connection attempt initiated by `node`.
    pub fn record_connect_attempt(&mut self, node: NodeId) {
        self.global.connect_attempts += 1;
        self.node_mut(node).connect_attempts += 1;
    }

    /// Records a failed connection attempt.
    pub fn record_connect_failure(&mut self, node: NodeId) {
        self.global.connect_failures += 1;
        self.node_mut(node).connect_failures += 1;
    }

    /// Records an established connection.
    pub fn record_connect_established(&mut self, node: NodeId) {
        self.global.connects_established += 1;
        self.node_mut(node).connects_established += 1;
    }

    /// Records a message (and its size) sent by `node` over `tech`.
    pub fn record_message_sent(&mut self, node: NodeId, tech: RadioTech, bytes: u64) {
        self.global.messages_sent += 1;
        self.global.bytes_sent += bytes;
        let c = self.node_mut(node);
        c.messages_sent += 1;
        c.bytes_sent += bytes;
        self.absorb_tech(tech, 1, bytes);
    }

    /// Records a message delivered to `node`.
    pub fn record_message_delivered(&mut self, node: NodeId) {
        self.global.messages_delivered += 1;
        self.node_mut(node).messages_delivered += 1;
    }

    /// Records a message lost in transit towards `node`.
    pub fn record_message_lost(&mut self, node: NodeId) {
        self.global.messages_lost += 1;
        self.node_mut(node).messages_lost += 1;
    }

    /// Records a broken link affecting `node`.
    pub fn record_link_broken(&mut self, node: NodeId) {
        self.global.links_broken += 1;
        self.node_mut(node).links_broken += 1;
    }

    /// Records a quality sample taken by `node`.
    pub fn record_quality_sample(&mut self, node: NodeId) {
        self.global.quality_samples += 1;
        self.node_mut(node).quality_samples += 1;
    }

    /// Merges counters recorded outside this store — a world shard tallies
    /// per-node counters locally and folds them in at the end of a run — into
    /// the node's slot and the global aggregate. All-zero counters are
    /// skipped so [`Metrics::iter_nodes`] keeps its "only active nodes"
    /// semantics.
    pub fn absorb_node(&mut self, node: NodeId, counters: &Counters) {
        if *counters == Counters::default() {
            return;
        }
        self.global.absorb(counters);
        self.node_mut(node).absorb(counters);
    }

    /// Merges externally recorded per-technology traffic totals (the
    /// per-tech companion of [`Metrics::absorb_node`]).
    pub fn absorb_tech(&mut self, tech: RadioTech, messages: u64, bytes: u64) {
        let entry = &mut self.per_tech[tech.index()];
        entry.0 += messages;
        entry.1 += bytes;
    }

    /// Resets every counter to zero, keeping the store allocated: the
    /// per-node vector retains its capacity (slots revert to `None`, so
    /// [`Metrics::iter_nodes`] stays empty until a node records again).
    pub fn reset(&mut self) {
        self.global = Counters::default();
        for slot in &mut self.per_node {
            *slot = None;
        }
        self.per_tech = [(0, 0); 3];
    }

    /// Capacity of the per-node counter vector — diagnostic for the
    /// allocation-retention guarantee of [`Metrics::reset`].
    pub fn per_node_capacity(&self) -> usize {
        self.per_node.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{SeriesValue, TelemetryConfig};
    use crate::time::{SimDuration, SimTime};

    fn node(n: u64) -> NodeId {
        NodeId::from_raw(n)
    }

    #[test]
    fn per_node_and_global_stay_consistent() {
        let mut m = Metrics::new();
        m.record_connect_attempt(node(1));
        m.record_connect_attempt(node(2));
        m.record_connect_failure(node(2));
        m.record_connect_established(node(1));
        assert_eq!(m.global().connect_attempts, 2);
        assert_eq!(m.node(node(1)).connect_attempts, 1);
        assert_eq!(m.node(node(2)).connect_failures, 1);
        assert_eq!(m.node(node(3)).connect_attempts, 0);
    }

    #[test]
    fn tech_breakdown() {
        let mut m = Metrics::new();
        m.record_message_sent(node(1), RadioTech::Bluetooth, 100);
        m.record_message_sent(node(1), RadioTech::Bluetooth, 50);
        m.record_message_sent(node(2), RadioTech::Gprs, 10);
        assert_eq!(m.messages_for_tech(RadioTech::Bluetooth), 2);
        assert_eq!(m.bytes_for_tech(RadioTech::Bluetooth), 150);
        assert_eq!(m.messages_for_tech(RadioTech::Gprs), 1);
        assert_eq!(m.messages_for_tech(RadioTech::Wlan), 0);
        assert_eq!(m.global().bytes_sent, 160);
    }

    #[test]
    fn rates() {
        let mut c = Counters::default();
        assert_eq!(c.delivery_rate(), 1.0);
        c.messages_sent = 20;
        c.messages_delivered = 19;
        assert!((c.delivery_rate() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = Counters {
            messages_sent: 5,
            bytes_sent: 100,
            ..Default::default()
        };
        let b = Counters {
            messages_sent: 2,
            bytes_sent: 30,
            links_broken: 1,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.messages_sent, 7);
        assert_eq!(a.bytes_sent, 130);
        assert_eq!(a.links_broken, 1);
    }

    crate::counter_table! {
        /// A stats struct only this test declares: each field is one line.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        struct Sample in "sample" {
            /// A counter exported under its own name.
            sent: u64 => counter "sent",
            /// A counter exported under another name.
            drops: u64 => counter "frames_dropped",
            /// A level, exported as a gauge.
            open: usize => gauge "open",
            /// A counter no series carries.
            retries: u64,
            /// A sum that is no integer: absorbed, not listed.
            secs: f64,
            /// One node's state: neither absorbed nor listed.
            up: bool,
        }
    }

    #[test]
    fn adding_a_counter_is_one_line() {
        let mut a = Sample {
            sent: 1,
            drops: 2,
            open: 3,
            retries: 4,
            secs: 0.5,
            up: true,
        };
        a.absorb(&Sample {
            sent: 10,
            drops: 20,
            open: 30,
            retries: 40,
            secs: 0.25,
            up: false,
        });
        let summed = Sample {
            sent: 11,
            drops: 22,
            open: 33,
            retries: 44,
            secs: 0.75,
            up: true,
        };
        assert_eq!(a, summed);
        let fields: Vec<_> = a.fields().collect();
        assert_eq!(fields, [("sent", 11), ("drops", 22), ("open", 33), ("retries", 44)]);

        assert_eq!(Sample::SERIES, ["sample/sent", "sample/frames_dropped", "sample/open"]);
        let mut tel = Telemetry::new(TelemetryConfig::every(SimDuration::from_secs(1)));
        a.export(&mut tel);
        tel.sample(SimTime::ZERO + SimDuration::from_secs(1));
        let written: Vec<_> = tel
            .latest()
            .unwrap()
            .samples()
            .iter()
            .map(|(k, v)| (k.display(), v.clone()))
            .collect();
        let expected = [
            ("sample/frames_dropped", SeriesValue::Counter(22)),
            ("sample/open", SeriesValue::Gauge(33.0)),
            ("sample/sent", SeriesValue::Counter(11)),
        ];
        assert_eq!(written, expected.map(|(name, value)| (name.to_string(), value)));
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Metrics::new();
        m.record_inquiry_started(node(1));
        m.record_inquiry_hits(node(1), 4);
        m.reset();
        assert_eq!(m.global().inquiries_started, 0);
        assert_eq!(m.node(node(1)).inquiry_hits, 0);
    }

    #[test]
    fn reset_keeps_the_store_allocated() {
        let mut m = Metrics::new();
        for n in 0..256 {
            m.record_message_sent(node(n), RadioTech::Wlan, 10);
        }
        let capacity = m.per_node_capacity();
        assert!(capacity >= 256, "recording must have grown the per-node store");
        m.reset();
        assert_eq!(
            m.per_node_capacity(),
            capacity,
            "reset must keep the per-node vector allocated, not rebuild it"
        );
        assert_eq!(m.global(), &Counters::default());
        assert_eq!(m.iter_nodes().count(), 0, "reset slots must read as never-recorded");
        assert_eq!(m.messages_for_tech(RadioTech::Wlan), 0);
        // The store still works after an in-place reset.
        m.record_message_sent(node(3), RadioTech::Gprs, 7);
        assert_eq!(m.node(node(3)).bytes_sent, 7);
        assert_eq!(m.iter_nodes().count(), 1);
    }

    #[test]
    fn iter_nodes_lists_only_active_nodes() {
        let mut m = Metrics::new();
        m.record_quality_sample(node(7));
        m.record_link_broken(node(9));
        let ids: Vec<NodeId> = m.iter_nodes().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![node(7), node(9)]);
    }
}
