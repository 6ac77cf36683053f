//! Network plugin state.
//!
//! The node owns one plugin per network technology (BTPlugin, WLANPlugin,
//! GPRSPlugin, Fig. 2.3). Each plugin runs its own inquiry loop: scan, fetch
//! information from new or recheck-due devices, update the device storage,
//! age the entries, sleep, repeat (Fig. 3.12). The reproduction keeps the
//! per-plugin bookkeeping here; the scan and fetch themselves are radio
//! operations performed by the node glue.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use simnet::RadioTech;

use crate::ids::DeviceAddress;

/// Why the node started an inquiry scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InquiryKind {
    /// The plugin's periodic discovery cycle: its hits feed the device
    /// storage, the fetches and the aging of the loop.
    Periodic,
    /// A provider switch's fresh search (§5.2.2): its hits are read to re-aim
    /// the switch at a provider the radio just heard, which it then dials
    /// directly, and written nowhere.
    Search,
}

/// Per-technology discovery bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PluginState {
    /// The technology this plugin drives.
    pub tech: RadioTech,
    /// Devices that answered the inquiry currently being processed.
    pub current_responders: Vec<DeviceAddress>,
    /// Information fetches still outstanding for the current cycle.
    pub pending_fetches: usize,
    /// True while an inquiry scan or its follow-up fetches are in progress.
    pub cycle_active: bool,
    /// The scans in flight on this radio, oldest first. A scan lasts the
    /// radio's fixed inquiry duration, so they complete in the order they
    /// started and each completion is the front one's.
    pub inquiries: VecDeque<InquiryKind>,
}

impl PluginState {
    /// Creates an idle plugin for the given technology.
    pub fn new(tech: RadioTech) -> Self {
        PluginState {
            tech,
            current_responders: Vec::new(),
            pending_fetches: 0,
            cycle_active: false,
            inquiries: VecDeque::new(),
        }
    }

    /// Marks the start of a new inquiry cycle.
    pub fn begin_cycle(&mut self) {
        self.cycle_active = true;
        self.current_responders.clear();
        self.pending_fetches = 0;
    }

    /// Records that a device answered the current inquiry.
    pub fn note_responder(&mut self, device: DeviceAddress) {
        if !self.current_responders.contains(&device) {
            self.current_responders.push(device);
        }
    }

    /// Records that an information fetch was started for the current cycle.
    pub fn note_fetch_started(&mut self) {
        self.pending_fetches += 1;
    }

    /// Records that an information fetch finished (successfully or not).
    /// Returns `true` if the cycle has no more outstanding fetches.
    pub fn note_fetch_finished(&mut self) -> bool {
        self.pending_fetches = self.pending_fetches.saturating_sub(1);
        self.pending_fetches == 0
    }

    /// Marks the cycle complete, returning the devices that answered.
    pub fn finish_cycle(&mut self) -> Vec<DeviceAddress> {
        self.cycle_active = false;
        std::mem::take(&mut self.current_responders)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u64) -> DeviceAddress {
        DeviceAddress::from_node_raw(n)
    }

    #[test]
    fn cycle_lifecycle() {
        let mut p = PluginState::new(RadioTech::Bluetooth);
        assert!(!p.cycle_active);
        p.begin_cycle();
        assert!(p.cycle_active);
        p.note_responder(addr(1));
        p.note_responder(addr(2));
        p.note_responder(addr(1));
        assert_eq!(p.current_responders.len(), 2);
        p.note_fetch_started();
        p.note_fetch_started();
        assert!(!p.note_fetch_finished());
        assert!(p.note_fetch_finished());
        let responders = p.finish_cycle();
        assert_eq!(responders, vec![addr(1), addr(2)]);
        assert!(!p.cycle_active);
        assert!(p.current_responders.is_empty());
    }

    #[test]
    fn fetch_counter_never_underflows() {
        let mut p = PluginState::new(RadioTech::Wlan);
        assert!(p.note_fetch_finished());
        assert_eq!(p.pending_fetches, 0);
    }
}
