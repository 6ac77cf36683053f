//! PeerHood services and the local service registry.
//!
//! A PeerHood service is described by `(name, attribute, port)` (§2.3). Any
//! registered service is discoverable by remote inquiries and can be
//! connected to from anywhere in the PeerHood network.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::PeerHoodError;
use crate::ids::ServicePort;

/// The hidden service name under which the bridge service is registered.
pub const BRIDGE_SERVICE_NAME: &str = "__peerhood_bridge__";

/// Description of one registered service.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceInfo {
    /// Service name, e.g. `"picture-analysis"`.
    pub name: String,
    /// Free-form attribute string, e.g. a version or capability tag.
    pub attribute: String,
    /// Port the service listens on.
    pub port: ServicePort,
}

impl ServiceInfo {
    /// Creates a service description.
    pub fn new(name: impl Into<String>, attribute: impl Into<String>, port: u16) -> Self {
        ServiceInfo {
            name: name.into(),
            attribute: attribute.into(),
            port: ServicePort(port),
        }
    }
}

impl fmt::Display for ServiceInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{} ({})", self.name, self.port, self.attribute)
    }
}

/// The set of services registered on the local daemon.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceRegistry {
    services: Vec<ServiceInfo>,
    generation: u64,
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ServiceRegistry::default()
    }

    /// Monotonic mutation counter (see
    /// [`DeviceStorage::generation`](crate::storage::DeviceStorage::generation)):
    /// unchanged generation ⇒ unchanged registry contents.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Registers a service, making it visible to discovery inquiries.
    ///
    /// # Errors
    ///
    /// Returns [`PeerHoodError::ServiceAlreadyRegistered`] if a service with
    /// the same name already exists.
    pub fn register(&mut self, service: ServiceInfo) -> Result<(), PeerHoodError> {
        if self.services.iter().any(|s| s.name == service.name) {
            return Err(PeerHoodError::ServiceAlreadyRegistered(service.name));
        }
        self.generation += 1;
        self.services.push(service);
        Ok(())
    }

    /// Looks up a registered service by name.
    pub fn find(&self, name: &str) -> Option<&ServiceInfo> {
        self.services.iter().find(|s| s.name == name)
    }

    /// All registered services, in registration order.
    pub fn list(&self) -> &[ServiceInfo] {
        &self.services
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// True if no service is registered.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_find() {
        let mut reg = ServiceRegistry::new();
        assert!(reg.is_empty());
        reg.register(ServiceInfo::new("echo", "v1", 10)).unwrap();
        reg.register(ServiceInfo::new("picture-analysis", "v1", 11)).unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.find("echo").unwrap().port, ServicePort(10));
        assert!(reg.find("missing").is_none());
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut reg = ServiceRegistry::new();
        reg.register(ServiceInfo::new("echo", "v1", 10)).unwrap();
        let err = reg.register(ServiceInfo::new("echo", "v2", 20)).unwrap_err();
        assert_eq!(err, PeerHoodError::ServiceAlreadyRegistered("echo".into()));
        // The original registration is untouched.
        assert_eq!(reg.find("echo").unwrap().attribute, "v1");
    }

    #[test]
    fn display_formats_name_port_attribute() {
        let s = ServiceInfo::new("echo", "test", 42);
        assert_eq!(s.to_string(), "echo:42 (test)");
    }

    #[test]
    fn list_preserves_registration_order() {
        let mut reg = ServiceRegistry::new();
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            reg.register(ServiceInfo::new(*name, "", i as u16)).unwrap();
        }
        let names: Vec<&str> = reg.list().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
