//! The endpoint directory: who is attached where, with what capabilities.
//!
//! The controller consults the directory to find an endpoint's fabric
//! port, its well-known control VCIs and its capability descriptor (the
//! admission budgets of §4.2). Endpoints are registered once at topology
//! build time; the directory is the control plane's single naming
//! authority, so session ids and sink VCIs never collide across boxes.

use pandora_atm::Vci;

/// A directory handle for one registered endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EndpointId(pub u32);

/// An endpoint's capability descriptor — the budgets its admission
/// controller enforces.
#[derive(Debug, Clone, Copy)]
pub struct Capabilities {
    /// Concurrent audio sinks the audio transputer can fully process
    /// ("three audio streams with full processing", §4.2).
    pub audio_sinks_max: u32,
    /// Concurrent video sinks the mixer board will composite.
    pub video_sinks_max: u32,
    /// Cell bandwidth of the box's ATM attachment, in cells/sec, shared
    /// by each direction.
    pub link_cps: u64,
}

impl Capabilities {
    /// The standard box: 3 full audio sinks (§4.2), 2 video windows, a
    /// 50 Mbit/s attachment (≈117k cells/sec).
    pub fn standard() -> Capabilities {
        Capabilities {
            audio_sinks_max: 3,
            video_sinks_max: 2,
            link_cps: 50_000_000 / (8 * pandora_atm::CELL_BYTES as u64),
        }
    }
}

/// A directory record: name, attachment and capabilities.
#[derive(Debug, Clone)]
pub struct EndpointRecord {
    /// Human-readable endpoint name (the box's configured name).
    pub name: String,
    /// Capability descriptor.
    pub caps: Capabilities,
    /// The endpoint's port on the session fabric switch.
    pub port: usize,
    /// Well-known VCI on which the endpoint's agent receives control.
    pub control_vci: Vci,
    /// Well-known VCI on which the endpoint's agent sends replies.
    pub reply_vci: Vci,
}

/// The registry of endpoints reachable through one controller.
#[derive(Debug, Default)]
pub struct Directory {
    records: Vec<EndpointRecord>,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Directory {
        Directory::default()
    }

    /// Registers an endpoint; returns its id.
    pub fn register(&mut self, record: EndpointRecord) -> EndpointId {
        self.records.push(record);
        EndpointId(self.records.len() as u32 - 1)
    }

    /// Looks up an endpoint.
    pub fn get(&self, id: EndpointId) -> Option<&EndpointRecord> {
        self.records.get(id.0 as usize)
    }

    /// Finds an endpoint by name.
    pub fn find(&self, name: &str) -> Option<EndpointId> {
        self.records
            .iter()
            .position(|r| r.name == name)
            .map(|i| EndpointId(i as u32))
    }

    /// Number of registered endpoints.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{CONTROL_VCI_BASE, REPLY_VCI_BASE};

    fn rec(name: &str, port: usize) -> EndpointRecord {
        EndpointRecord {
            name: name.to_string(),
            caps: Capabilities::standard(),
            port,
            control_vci: Vci(CONTROL_VCI_BASE + port as u32),
            reply_vci: Vci(REPLY_VCI_BASE + port as u32),
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut d = Directory::new();
        assert!(d.is_empty());
        let a = d.register(rec("alpha", 0));
        let b = d.register(rec("beta", 1));
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(a).map(|r| r.port), Some(0));
        assert_eq!(d.find("beta"), Some(b));
        assert_eq!(d.find("gamma"), None);
        assert_eq!(d.get(EndpointId(9)).map(|r| r.port), None);
    }

    #[test]
    fn standard_caps_match_paper() {
        let c = Capabilities::standard();
        assert_eq!(c.audio_sinks_max, 3);
        assert!(c.link_cps > 100_000);
    }
}
