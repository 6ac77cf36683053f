//! Byte-level encoding of [`Message`]s.
//!
//! PeerHood exchanges its commands over raw sockets, so the reproduction
//! keeps an explicit, compact, versioned byte codec rather than relying on a
//! serialisation framework. Every message round-trips exactly
//! (property-tested below), and decoding is defensive: truncated or corrupt
//! buffers produce a [`WireError`] instead of a panic.
//!
//! Encoded frames travel as shared [`Frame`]s (`Rc<[u8]>`-backed, re-exported
//! from [`simnet::Payload`]): [`encode_into`] writes the bytes into a
//! reusable buffer — the node's send path uses one per thread
//! (`with_encode_buffer`), so the steady-state encode path stops allocating
//! and no node keeps a buffer of its own — and the exact-sized frame copied
//! out of it has free clones. Encode a discovery advertisement once, send it
//! to every neighbour.
//!
//! **Neighbour reports never become a [`Message`] on the node's own path.**
//! The inquiry response is the middleware's steady-state load (≈ 25 records a
//! frame, one frame per neighbour per inquiry cycle), and almost every record
//! re-announces a device the receiver already knows. So the report has a
//! borrowed form, [`InquiryResponseView`]: one validating pass over the frame
//! — same grammar, same [`WireError`]s as [`decode`]: every element has one
//! parser, which yields a view, and `decode` is that parser plus `view →
//! owned` — after which names are `&str` and hop/tech lists `&[u8]` into the
//! frame it arrived in. The walk a view's [`Neighbors`] make re-reads each
//! record's fields with the same parser but steps over its services by their
//! length prefixes, so a service is parsed again only where the storage looks
//! inside the list; a record's [`Services`] keep the bytes of their run, and
//! a list a new row may share is compared with the shared one byte for byte
//! ([`Services::to_shared`]). The receiving node goes verify → link-role
//! lookup → view → device storage, and the storage materialises an owned
//! description only for the entries it inserts or changes. On the serving side
//! [`InquiryResponseWriter`] streams the reply straight from the device
//! storage into the encode buffer, with no intermediate record list (the
//! record count is patched in afterwards); [`encode_into`] writes its report
//! arm through the same writer, so the report has one parser and one printer.
//!
//! **Other frames are built only where something keeps them.** [`validate`]
//! gives [`decode`]'s verdict through the same parser without building
//! anything: a daemon answers an inquiry request from its cached response
//! without the requester's description, and the adversary's forge reads a
//! tag or a connection id without decoding a report. [`decode`] builds the
//! owned [`Message`] for the frames whose fields reach an application or a
//! bridge.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

use simnet::RadioTech;

/// A shared, immutable encoded frame (see [`simnet::Payload`]). Clones are
/// reference-count bumps; the world's delivery pipeline carries the same
/// allocation end to end.
pub use simnet::Payload as Frame;

use crate::device::{DeviceInfo, MobilityClass};
use crate::error::ErrorCode;
use crate::ids::{Checksum, ConnectionId, DeviceAddress, ServicePort};
use crate::proto::{Message, NeighborRecord};
use crate::service::ServiceInfo;

/// Codec version carried in every frame.
pub const WIRE_VERSION: u8 = 1;

/// Errors produced while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced content.
    Truncated,
    /// Unknown message tag.
    UnknownTag(u8),
    /// Unknown enum discriminant inside a message.
    InvalidValue(&'static str),
    /// Frame produced by an incompatible codec version.
    VersionMismatch(u8),
    /// A length-prefixed string was not valid UTF-8.
    InvalidUtf8,
    /// Trailing bytes after the message ended.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::InvalidValue(what) => write!(f, "invalid value for {what}"),
            WireError::VersionMismatch(v) => write!(f, "unsupported wire version {v}"),
            WireError::InvalidUtf8 => write!(f, "string field was not valid utf-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Tag of a [`Message::InquiryRequest`] frame (its second byte).
pub const TAG_INQUIRY_REQUEST: u8 = 1;
/// Tag of a [`Message::InquiryResponse`] frame.
pub const TAG_INQUIRY_RESPONSE: u8 = 2;
/// Tag of a [`Message::ConnectRequest`] frame.
pub const TAG_CONNECT_REQUEST: u8 = 3;
/// Tag of a [`Message::BridgeRequest`] frame.
pub const TAG_BRIDGE_REQUEST: u8 = 4;
/// Tag of a [`Message::Accept`] frame.
pub const TAG_ACCEPT: u8 = 5;
/// Tag of a [`Message::Error`] frame.
pub const TAG_ERROR: u8 = 6;
/// Tag of a [`Message::Data`] frame.
pub const TAG_DATA: u8 = 7;
/// Tag of a [`Message::Disconnect`] frame.
pub const TAG_DISCONNECT: u8 = 8;

struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn header(&mut self, tag: u8) {
        self.u8(WIRE_VERSION);
        self.u8(tag);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(counted(v.len(), 32) as u32);
        self.buf.extend_from_slice(v);
    }
    fn string(&mut self, v: &str) {
        self.u16(counted(v.len(), 16) as u16);
        self.buf.extend_from_slice(v.as_bytes());
    }
    fn address(&mut self, a: DeviceAddress) {
        self.buf.extend_from_slice(&a.octets());
    }
    fn conn(&mut self, c: ConnectionId) {
        self.u64(c.as_raw());
    }
    fn opt_conn(&mut self, c: Option<ConnectionId>) {
        match c {
            None => self.u8(0),
            Some(c) => {
                self.u8(1);
                self.conn(c);
            }
        }
    }
    fn tech(&mut self, t: RadioTech) {
        self.u8(match t {
            RadioTech::Bluetooth => 0,
            RadioTech::Wlan => 1,
            RadioTech::Gprs => 2,
        });
    }
    fn device(&mut self, d: &DeviceInfo) {
        self.device_fields(d.address, &d.name, d.mobility, d.checksum, &d.techs);
    }
    fn device_fields(
        &mut self,
        address: DeviceAddress,
        name: &str,
        mobility: MobilityClass,
        checksum: Checksum,
        techs: &[RadioTech],
    ) {
        self.address(address);
        self.string(name);
        self.u8(mobility.value());
        self.u32(checksum.0);
        self.u8(counted(techs.len(), 8) as u8);
        for t in techs {
            self.tech(*t);
        }
    }
    fn service(&mut self, s: &ServiceInfo) {
        self.string(&s.name);
        self.string(&s.attribute);
        self.u16(s.port.0);
    }
    /// Reserves a `u16` count to be filled in by [`Writer::patch_u16`] once
    /// the elements behind it have been streamed out.
    fn reserve_u16(&mut self) -> usize {
        let at = self.buf.len();
        self.u16(0);
        at
    }
    fn patch_u16(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_be_bytes());
    }
}

/// `n`, checked in debug builds to fit the `bits`-wide field the writer is
/// about to narrow it into: a longer count would be written wrapped, and the
/// frame would no longer parse.
fn counted(n: usize, bits: u32) -> usize {
    debug_assert!(
        (n as u64) >> bits == 0,
        "a count of {n} does not fit its {bits}-bit wire field"
    );
    n
}

fn tech_from_byte(byte: u8) -> Option<RadioTech> {
    match byte {
        0 => Some(RadioTech::Bluetooth),
        1 => Some(RadioTech::Wlan),
        2 => Some(RadioTech::Gprs),
        _ => None,
    }
}

/// One neighbour record borrowed from whatever holds it — a
/// [`NeighborRecord`] or a row of the device storage, which keeps these
/// fields apart — as [`InquiryResponseWriter::neighbor`] writes it.
#[derive(Debug, Clone, Copy)]
pub struct NeighborRef<'a> {
    /// The advertised device's address.
    pub address: DeviceAddress,
    /// Its human-readable name.
    pub name: &'a str,
    /// Its mobility classification.
    pub mobility: MobilityClass,
    /// Its daemon process-id checksum.
    pub checksum: Checksum,
    /// The radio technologies its plugins cover.
    pub techs: &'a [RadioTech],
    /// Jump count as seen from the exporting device.
    pub jumps: u8,
    /// Per-hop qualities along the exporter's route, nearest hop first.
    pub hop_qualities: &'a [u8],
    /// Services the device offers.
    pub services: &'a [ServiceInfo],
}

impl<'a> From<&'a NeighborRecord> for NeighborRef<'a> {
    fn from(n: &'a NeighborRecord) -> Self {
        NeighborRef {
            address: n.info.address,
            name: &n.info.name,
            mobility: n.info.mobility,
            checksum: n.info.checksum,
            techs: &n.info.techs,
            jumps: n.jumps,
            hop_qualities: &n.hop_qualities,
            services: &n.services,
        }
    }
}

/// Streams one [`Message::InquiryResponse`] frame into a buffer without the
/// message ever existing: header, device and services up front, then one
/// [`InquiryResponseWriter::neighbor`] call per exported record, then
/// [`InquiryResponseWriter::finish`]. The bytes are exactly what
/// [`encode_into`] produces for the equivalent message (it uses this writer).
pub struct InquiryResponseWriter<'a> {
    w: Writer<'a>,
    count_at: usize,
    count: usize,
}

impl<'a> InquiryResponseWriter<'a> {
    /// Appends the frame's head to `buf` (normally cleared by the caller).
    pub fn begin<'s>(
        buf: &'a mut Vec<u8>,
        device: &DeviceInfo,
        services: impl IntoIterator<Item = &'s ServiceInfo>,
    ) -> Self {
        let mut w = Writer { buf };
        w.header(TAG_INQUIRY_RESPONSE);
        w.device(device);
        let services_at = w.reserve_u16();
        let mut service_count = 0usize;
        for s in services {
            w.service(s);
            service_count += 1;
        }
        w.patch_u16(services_at, counted(service_count, 16) as u16);
        let count_at = w.reserve_u16();
        InquiryResponseWriter { w, count_at, count: 0 }
    }

    /// Appends one neighbour record.
    pub fn neighbor(&mut self, n: NeighborRef<'_>) {
        let w = &mut self.w;
        w.device_fields(n.address, n.name, n.mobility, n.checksum, n.techs);
        w.u8(n.jumps);
        w.u8(counted(n.hop_qualities.len(), 8) as u8);
        w.buf.extend_from_slice(n.hop_qualities);
        w.u16(counted(n.services.len(), 16) as u16);
        for s in n.services {
            w.service(s);
        }
        self.count += 1;
    }

    /// Fills in the record count and closes the frame.
    pub fn finish(mut self, bridge_load_percent: u8) {
        self.w.patch_u16(self.count_at, counted(self.count, 16) as u16);
        self.w.u8(bridge_load_percent);
    }
}

#[derive(Clone, Default)]
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// The one parser of the frame grammar. Every accessor borrows from the
/// frame; nothing here allocates, so a corrupted count can never make the
/// decoder reserve memory — it just runs into [`WireError::Truncated`].
impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }
    fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::InvalidUtf8)
    }
    fn address(&mut self) -> Result<DeviceAddress, WireError> {
        let b = self.take(6)?;
        Ok(DeviceAddress::from_octets([b[0], b[1], b[2], b[3], b[4], b[5]]))
    }
    fn conn(&mut self) -> Result<ConnectionId, WireError> {
        Ok(ConnectionId::from_raw(self.u64()?))
    }
    fn opt_conn(&mut self) -> Result<Option<ConnectionId>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.conn()?)),
            _ => Err(WireError::InvalidValue("optional connection id")),
        }
    }
    fn device(&mut self) -> Result<DeviceView<'a>, WireError> {
        let address = self.address()?;
        let name = self.str()?;
        let mobility = MobilityClass::from_value(self.u8()?).ok_or(WireError::InvalidValue("mobility class"))?;
        let checksum = Checksum(self.u32()?);
        let tech_count = self.u8()? as usize;
        let techs_at = self.pos;
        // Byte by byte, not `take(tech_count)`: a bad tech byte ahead of the
        // point where the frame runs out is an invalid value, not a
        // truncation.
        for _ in 0..tech_count {
            tech_from_byte(self.u8()?).ok_or(WireError::InvalidValue("radio technology"))?;
        }
        Ok(DeviceView {
            address,
            name,
            mobility,
            checksum,
            techs: &self.buf[techs_at..self.pos],
        })
    }
    fn service(&mut self) -> Result<ServiceView<'a>, WireError> {
        Ok(ServiceView {
            name: self.str()?,
            attribute: self.str()?,
            port: ServicePort(self.u16()?),
        })
    }
    /// A counted run of services. The validating pass (`CHECK`) parses
    /// every one; a walk over bytes that already passed it steps over each by
    /// its length prefixes, with no UTF-8 check and no [`ServiceView`].
    /// Either way the list handed back keeps the bytes it covers and only
    /// ever re-reads bytes that parsed.
    fn services<const CHECK: bool>(&mut self) -> Result<Services<'a>, WireError> {
        let start = self.pos;
        let left = self.u16()? as usize;
        let r = self.clone();
        for _ in 0..left {
            if CHECK {
                self.service()?;
            } else {
                let name = self.u16()? as usize;
                self.take(name)?;
                let attribute = self.u16()? as usize;
                self.take(attribute)?;
                self.take(2)?;
            }
        }
        Ok(Services {
            span: &self.buf[start..self.pos],
            r,
            left,
        })
    }
    fn neighbor<const CHECK: bool>(&mut self) -> Result<NeighborView<'a>, WireError> {
        let info = self.device()?;
        let jumps = self.u8()?;
        let hop_count = self.u8()? as usize;
        let hop_qualities = self.take(hop_count)?;
        let services = self.services::<CHECK>()?;
        Ok(NeighborView {
            info,
            jumps,
            hop_qualities,
            services,
        })
    }
    fn inquiry_response(&mut self) -> Result<InquiryResponseView<'a>, WireError> {
        let device = self.device()?;
        let services = self.services::<true>()?;
        let left = self.u16()? as usize;
        let neighbors = Neighbors { r: self.clone(), left };
        for _ in 0..left {
            self.neighbor::<true>()?;
        }
        let bridge_load_percent = self.u8()?;
        Ok(InquiryResponseView {
            device,
            services,
            neighbors,
            bridge_load_percent,
        })
    }
    /// Version check, then the message tag.
    fn header(&mut self) -> Result<u8, WireError> {
        let version = self.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::VersionMismatch(version));
        }
        self.u8()
    }
    fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

/// A device description borrowed from a frame.
#[derive(Debug, Clone, Copy)]
pub struct DeviceView<'a> {
    /// Unique device address.
    pub address: DeviceAddress,
    /// Human-readable device name.
    pub name: &'a str,
    /// Mobility classification.
    pub mobility: MobilityClass,
    /// Daemon process-id checksum.
    pub checksum: Checksum,
    /// One validated wire byte per radio technology.
    techs: &'a [u8],
}

impl<'a> DeviceView<'a> {
    /// The radio technologies the device's plugins cover.
    pub fn techs(&self) -> impl ExactSizeIterator<Item = RadioTech> + 'a {
        self.techs
            .iter()
            .map(|&b| tech_from_byte(b).expect("tech bytes were validated when the view was parsed"))
    }

    /// The name as an owned string: `like`'s own `Rc` when it reads the same
    /// ([`DeviceInfo`] compares and encodes contents, so the sharing is
    /// invisible), a new one otherwise.
    pub fn shared_name(&self, like: Option<&Rc<str>>) -> Rc<str> {
        match like {
            Some(like) if **like == *self.name => like.clone(),
            _ => self.name.into(),
        }
    }

    /// The technology list, shared with `like` as [`DeviceView::shared_name`]
    /// shares the name.
    pub fn shared_techs(&self, like: Option<&Rc<[RadioTech]>>) -> Rc<[RadioTech]> {
        match like {
            Some(like) if self.techs().eq(like.iter().copied()) => like.clone(),
            _ => self.techs().collect(),
        }
    }

    /// The owned description, sharing the name and the technology list of
    /// `like` — a description the caller already holds — where they are
    /// equal.
    pub fn to_info(&self, like: Option<&DeviceInfo>) -> DeviceInfo {
        DeviceInfo {
            address: self.address,
            name: self.shared_name(like.map(|l| &l.name)),
            mobility: self.mobility,
            checksum: self.checksum,
            techs: self.shared_techs(like.map(|l| &l.techs)),
        }
    }
}

/// A service description borrowed from a frame.
#[derive(Debug, Clone, Copy)]
pub struct ServiceView<'a> {
    /// Service name.
    pub name: &'a str,
    /// Free-form attribute string.
    pub attribute: &'a str,
    /// Port the service listens on.
    pub port: ServicePort,
}

impl ServiceView<'_> {
    /// The owned description.
    pub fn to_info(&self) -> ServiceInfo {
        ServiceInfo {
            name: self.name.to_owned(),
            attribute: self.attribute.to_owned(),
            port: self.port,
        }
    }
}

/// The services of one device in a frame: a cheap-to-clone iterator over
/// bytes that were validated when the enclosing view was parsed.
#[derive(Clone)]
pub struct Services<'a> {
    /// The run as it is on the wire, count included: two runs with equal
    /// bytes hold equal services.
    span: &'a [u8],
    r: Reader<'a>,
    left: usize,
}

impl<'a> Iterator for Services<'a> {
    type Item = ServiceView<'a>;
    fn next(&mut self) -> Option<ServiceView<'a>> {
        self.left = self.left.checked_sub(1)?;
        Some(
            self.r
                .service()
                .expect("services were validated when the view was parsed"),
        )
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Services<'_> {}

impl<'a> Services<'a> {
    /// True when the run is exactly `list`'s encoding: the bytes are
    /// compared with the list's strings as they stand, with no UTF-8 check
    /// (bytes equal to a `str`'s are valid by construction).
    fn encodes(&self, list: &[ServiceInfo]) -> bool {
        let mut r = Reader::new(self.span);
        let string = |r: &mut Reader<'_>, v: &str| {
            r.u16().is_ok_and(|len| usize::from(len) == v.len()) && r.take(v.len()).is_ok_and(|b| b == v.as_bytes())
        };
        r.u16().is_ok_and(|count| usize::from(count) == list.len())
            && list
                .iter()
                .all(|s| string(&mut r, &s.name) && string(&mut r, &s.attribute) && r.u16() == Ok(s.port.0))
    }

    /// The owned list, shared with `like` when that holds exactly these
    /// services (see [`DeviceView::to_info`]).
    pub fn to_shared(&self, like: Option<&Rc<[ServiceInfo]>>) -> Rc<[ServiceInfo]> {
        match like {
            Some(like) if self.encodes(like) => like.clone(),
            _ => self.clone().map(|s| s.to_info()).collect(),
        }
    }
}

/// One neighbour record borrowed from a frame.
#[derive(Clone)]
pub struct NeighborView<'a> {
    /// The advertised device.
    pub info: DeviceView<'a>,
    /// Jump count as seen from the responding device.
    pub jumps: u8,
    /// Per-hop qualities along the responder's route, nearest hop first.
    pub hop_qualities: &'a [u8],
    /// Services the device offers.
    pub services: Services<'a>,
}

impl NeighborView<'_> {
    /// The owned record.
    pub fn to_record(&self) -> NeighborRecord {
        NeighborRecord {
            info: self.info.to_info(None),
            jumps: self.jumps,
            hop_qualities: self.hop_qualities.to_vec(),
            services: self.services.to_shared(None),
        }
    }
}

/// The neighbour records of a report (see [`Services`]). The default is the
/// empty list.
#[derive(Clone, Default)]
pub struct Neighbors<'a> {
    r: Reader<'a>,
    left: usize,
}

impl<'a> Iterator for Neighbors<'a> {
    type Item = NeighborView<'a>;
    fn next(&mut self) -> Option<NeighborView<'a>> {
        self.left = self.left.checked_sub(1)?;
        Some(
            self.r
                .neighbor::<false>()
                .expect("records were validated when the view was parsed"),
        )
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

/// A [`Message::InquiryResponse`] read in place: every field borrowed from
/// the frame, the whole frame validated before the view exists.
#[derive(Clone)]
pub struct InquiryResponseView<'a> {
    /// The responding device's description.
    pub device: DeviceView<'a>,
    /// Services registered on the responding device.
    pub services: Services<'a>,
    /// The responder's exported device storage.
    pub neighbors: Neighbors<'a>,
    /// Bridge load as a percentage of the configured maximum.
    pub bridge_load_percent: u8,
}

impl InquiryResponseView<'_> {
    /// The owned message — what [`decode`] returns for the same frame.
    pub fn to_message(&self) -> Message {
        Message::InquiryResponse {
            device: self.device.to_info(None),
            services: self.services.clone().map(|s| s.to_info()).collect(),
            neighbors: self.neighbors.clone().map(|n| n.to_record()).collect(),
            bridge_load_percent: self.bridge_load_percent,
        }
    }
}

/// Reads an inquiry-response frame in place, without allocating.
///
/// # Errors
///
/// Exactly [`decode`]'s error for the same bytes when the frame carries the
/// inquiry-response tag; [`WireError::UnknownTag`] when it is some other
/// message.
pub fn view_inquiry_response(frame: &[u8]) -> Result<InquiryResponseView<'_>, WireError> {
    let mut r = Reader::new(frame);
    match r.header()? {
        TAG_INQUIRY_RESPONSE => {}
        other => return Err(WireError::UnknownTag(other)),
    }
    let view = r.inquiry_response()?;
    r.finish()?;
    Ok(view)
}

thread_local! {
    /// The encode buffer every node on this thread writes its frames into;
    /// see [`with_encode_buffer`].
    static ENCODE_BUFFER: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Runs `encode` on this thread's encode buffer, cleared. The buffer is taken
/// out for the call and put back after, so an encode nested inside `encode`
/// starts from an empty vector (and allocates) instead of writing into the
/// one in use. It keeps the capacity of the largest frame encoded on the
/// thread: one buffer per thread, not one per node.
pub(crate) fn with_encode_buffer<R>(encode: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    let mut buffer = ENCODE_BUFFER.take();
    buffer.clear();
    let result = encode(&mut buffer);
    ENCODE_BUFFER.set(buffer);
    result
}

/// Encodes a message into a freshly allocated self-contained frame.
///
/// Hot paths should prefer [`encode_into`] with a reused buffer; the bytes
/// produced are identical.
pub fn encode(message: &Message) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_into(message, &mut buf);
    buf
}

/// Encodes a message by appending its frame bytes to `buf` (which is
/// normally cleared by the caller; [`encode`] starts from an empty one).
pub fn encode_into(message: &Message, buf: &mut Vec<u8>) {
    let mut w = Writer { buf };
    match message {
        Message::InquiryRequest { requester } => {
            w.header(TAG_INQUIRY_REQUEST);
            w.device(requester);
        }
        Message::InquiryResponse {
            device,
            services,
            neighbors,
            bridge_load_percent,
        } => {
            let mut report = InquiryResponseWriter::begin(w.buf, device, services);
            for n in neighbors {
                report.neighbor(n.into());
            }
            report.finish(*bridge_load_percent);
        }
        Message::ConnectRequest {
            conn_id,
            service,
            client,
            reply_context,
        } => {
            w.header(TAG_CONNECT_REQUEST);
            w.conn(*conn_id);
            w.string(service);
            w.device(client);
            w.opt_conn(*reply_context);
        }
        Message::BridgeRequest {
            conn_id,
            destination,
            service,
            client,
            reply_context,
        } => {
            w.header(TAG_BRIDGE_REQUEST);
            w.conn(*conn_id);
            w.address(*destination);
            w.string(service);
            w.device(client);
            w.opt_conn(*reply_context);
        }
        Message::Accept { conn_id } => {
            w.header(TAG_ACCEPT);
            w.conn(*conn_id);
        }
        Message::Error { conn_id, code, detail } => {
            w.header(TAG_ERROR);
            w.conn(*conn_id);
            w.u8(code.code());
            w.string(detail);
        }
        Message::Data { conn_id, payload } => {
            w.header(TAG_DATA);
            w.conn(*conn_id);
            w.bytes(payload);
        }
        Message::Disconnect { conn_id } => {
            w.header(TAG_DISCONNECT);
            w.conn(*conn_id);
        }
    }
}

/// A frame read in place: the one parser behind [`decode`] and [`validate`],
/// which differ only in what they build from it.
enum MessageView<'a> {
    InquiryRequest {
        requester: DeviceView<'a>,
    },
    InquiryResponse(InquiryResponseView<'a>),
    ConnectRequest {
        conn_id: ConnectionId,
        service: &'a str,
        client: DeviceView<'a>,
        reply_context: Option<ConnectionId>,
    },
    BridgeRequest {
        conn_id: ConnectionId,
        destination: DeviceAddress,
        service: &'a str,
        client: DeviceView<'a>,
        reply_context: Option<ConnectionId>,
    },
    Accept(ConnectionId),
    Error {
        conn_id: ConnectionId,
        code: ErrorCode,
        detail: &'a str,
    },
    Data {
        conn_id: ConnectionId,
        payload: &'a [u8],
    },
    Disconnect(ConnectionId),
}

impl MessageView<'_> {
    fn connection_id(&self) -> Option<ConnectionId> {
        match self {
            MessageView::InquiryRequest { .. } | MessageView::InquiryResponse(_) => None,
            MessageView::ConnectRequest { conn_id, .. }
            | MessageView::BridgeRequest { conn_id, .. }
            | MessageView::Accept(conn_id)
            | MessageView::Error { conn_id, .. }
            | MessageView::Data { conn_id, .. }
            | MessageView::Disconnect(conn_id) => Some(*conn_id),
        }
    }

    /// The owned message, its device descriptions sharing `like`'s name
    /// and technology list where equal (see [`DeviceView::to_info`]).
    fn to_message(&self, like: Option<&DeviceInfo>) -> Message {
        match *self {
            MessageView::InquiryRequest { requester } => Message::InquiryRequest {
                requester: requester.to_info(like),
            },
            // Not reached from `decode`, which converts a report record by
            // record.
            MessageView::InquiryResponse(ref report) => report.to_message(),
            MessageView::ConnectRequest {
                conn_id,
                service,
                client,
                reply_context,
            } => Message::ConnectRequest {
                conn_id,
                service: service.to_owned(),
                client: client.to_info(like),
                reply_context,
            },
            MessageView::BridgeRequest {
                conn_id,
                destination,
                service,
                client,
                reply_context,
            } => Message::BridgeRequest {
                conn_id,
                destination,
                service: service.to_owned(),
                client: client.to_info(like),
                reply_context,
            },
            MessageView::Accept(conn_id) => Message::Accept { conn_id },
            MessageView::Error { conn_id, code, detail } => Message::Error {
                conn_id,
                code,
                detail: detail.to_owned(),
            },
            MessageView::Data { conn_id, payload } => Message::Data {
                conn_id,
                payload: payload.to_vec(),
            },
            MessageView::Disconnect(conn_id) => Message::Disconnect { conn_id },
        }
    }
}

impl<'a> Reader<'a> {
    /// The message after a header carrying `tag`.
    fn body(&mut self, tag: u8) -> Result<MessageView<'a>, WireError> {
        Ok(match tag {
            TAG_INQUIRY_REQUEST => MessageView::InquiryRequest {
                requester: self.device()?,
            },
            TAG_INQUIRY_RESPONSE => MessageView::InquiryResponse(self.inquiry_response()?),
            TAG_CONNECT_REQUEST => MessageView::ConnectRequest {
                conn_id: self.conn()?,
                service: self.str()?,
                client: self.device()?,
                reply_context: self.opt_conn()?,
            },
            TAG_BRIDGE_REQUEST => MessageView::BridgeRequest {
                conn_id: self.conn()?,
                destination: self.address()?,
                service: self.str()?,
                client: self.device()?,
                reply_context: self.opt_conn()?,
            },
            TAG_ACCEPT => MessageView::Accept(self.conn()?),
            TAG_ERROR => MessageView::Error {
                conn_id: self.conn()?,
                code: ErrorCode::from_code(self.u8()?).ok_or(WireError::InvalidValue("error code"))?,
                detail: self.str()?,
            },
            TAG_DATA => MessageView::Data {
                conn_id: self.conn()?,
                payload: self.bytes()?,
            },
            TAG_DISCONNECT => MessageView::Disconnect(self.conn()?),
            other => return Err(WireError::UnknownTag(other)),
        })
    }
}

/// Decodes a frame previously produced by [`encode`].
///
/// # Errors
///
/// Returns a [`WireError`] for truncated, corrupt, version-mismatched or
/// trailing-garbage frames.
pub fn decode(frame: &[u8]) -> Result<Message, WireError> {
    decode_sharing(frame, None)
}

/// [`decode`], every device description in the frame sharing the name and
/// technology list of `like` where they are equal (see
/// [`DeviceView::to_info`]). A node decodes with its own description: a
/// fleet's devices describe themselves alike, so a connecting client's
/// description then costs no allocation of its own.
///
/// # Errors
///
/// Exactly [`decode`]'s.
pub fn decode_like(frame: &[u8], like: &DeviceInfo) -> Result<Message, WireError> {
    decode_sharing(frame, Some(like))
}

fn decode_sharing(frame: &[u8], like: Option<&DeviceInfo>) -> Result<Message, WireError> {
    let mut r = Reader::new(frame);
    let message = match r.header()? {
        // Record by record rather than the validated view's `to_message()`:
        // the same element parsers and conversions, without walking the
        // frame once more just to validate it ahead of the conversion.
        TAG_INQUIRY_RESPONSE => {
            let device = r.device()?.to_info(like);
            let services = r.services::<true>()?.map(|s| s.to_info()).collect();
            let count = r.u16()? as usize;
            // Every record occupies at least one byte, so a corrupted count
            // can never reserve more slots than the frame has bytes left.
            let mut neighbors = Vec::with_capacity(count.min(r.remaining()));
            for _ in 0..count {
                neighbors.push(r.neighbor::<true>()?.to_record());
            }
            Message::InquiryResponse {
                device,
                services,
                neighbors,
                bridge_load_percent: r.u8()?,
            }
        }
        tag => r.body(tag)?.to_message(like),
    };
    r.finish()?;
    Ok(message)
}

/// Checks a frame without building anything: [`decode`]'s verdict, and for a
/// frame that decodes, its tag (one of the `TAG_*` constants) and what
/// [`Message::connection_id`] would say.
///
/// # Errors
///
/// Exactly [`decode`]'s error for the same bytes.
pub fn validate(frame: &[u8]) -> Result<(u8, Option<ConnectionId>), WireError> {
    let mut r = Reader::new(frame);
    let tag = r.header()?;
    let conn = r.body(tag)?.connection_id();
    r.finish()?;
    Ok((tag, conn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MobilityClass;
    use simnet::rng::SimRng;
    use simnet::NodeId;

    fn device(n: u64) -> DeviceInfo {
        DeviceInfo::new(
            NodeId::from_raw(n),
            format!("dev{n}"),
            MobilityClass::Hybrid,
            &[RadioTech::Bluetooth, RadioTech::Wlan],
        )
    }

    fn conn(n: u64, c: u32) -> ConnectionId {
        ConnectionId::new(DeviceAddress::from_node_raw(n), c)
    }

    #[test]
    fn every_variant_roundtrips() {
        let messages = vec![
            Message::InquiryRequest { requester: device(1) },
            Message::InquiryResponse {
                device: device(2),
                services: vec![ServiceInfo::new("echo", "v1", 3), ServiceInfo::new("pics", "", 4)],
                neighbors: vec![NeighborRecord {
                    info: device(3),
                    jumps: 2,
                    hop_qualities: vec![240, 231, 255],
                    services: vec![ServiceInfo::new("relay", "x", 9)].into(),
                }],
                bridge_load_percent: 40,
            },
            Message::ConnectRequest {
                conn_id: conn(1, 7),
                service: "picture-analysis".into(),
                client: device(1),
                reply_context: Some(conn(1, 3)),
            },
            Message::BridgeRequest {
                conn_id: conn(1, 8),
                destination: DeviceAddress::from_node_raw(9),
                service: "echo".into(),
                client: device(1),
                reply_context: None,
            },
            Message::Accept { conn_id: conn(2, 0) },
            Message::Error {
                conn_id: conn(2, 1),
                code: ErrorCode::BridgeBusy,
                detail: "limit reached".into(),
            },
            Message::Data {
                conn_id: conn(3, 0),
                payload: vec![0, 1, 2, 255, 254],
            },
            Message::Disconnect { conn_id: conn(3, 1) },
        ];
        for m in messages {
            let frame = encode(&m);
            let decoded = decode(&frame).unwrap();
            assert_eq!(decoded, m);
        }
    }

    #[test]
    fn version_mismatch_detected() {
        let mut frame = encode(&Message::Accept { conn_id: conn(1, 1) });
        frame[0] = 99;
        assert_eq!(decode(&frame), Err(WireError::VersionMismatch(99)));
    }

    #[test]
    fn unknown_tag_detected() {
        let frame = vec![WIRE_VERSION, 200];
        assert_eq!(decode(&frame), Err(WireError::UnknownTag(200)));
    }

    #[test]
    fn truncation_detected_everywhere() {
        let full = encode(&Message::ConnectRequest {
            conn_id: conn(1, 7),
            service: "picture-analysis".into(),
            client: device(1),
            reply_context: Some(conn(1, 3)),
        });
        for len in 0..full.len() {
            let err = decode(&full[..len]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated | WireError::VersionMismatch(_)),
                "unexpected error at {len}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut frame = encode(&Message::Disconnect { conn_id: conn(1, 0) });
        frame.push(0xAA);
        assert_eq!(decode(&frame), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn empty_frame_is_truncated() {
        assert_eq!(decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn error_display() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::UnknownTag(3).to_string().contains('3'));
        assert!(WireError::InvalidUtf8.to_string().contains("utf-8"));
    }

    // ------------------------------------------------------------------
    // Deterministic randomised tests (SimRng-driven; proptest is not
    // available in the offline build environment).
    // ------------------------------------------------------------------

    fn arb_string(rng: &mut SimRng, alphabet: &[u8], max_len: usize) -> String {
        let len = rng.range(0..=max_len);
        (0..len).map(|_| alphabet[rng.index(alphabet.len())] as char).collect()
    }

    fn arb_tech(rng: &mut SimRng) -> RadioTech {
        [RadioTech::Bluetooth, RadioTech::Wlan, RadioTech::Gprs][rng.index(3)]
    }

    fn arb_mobility(rng: &mut SimRng) -> MobilityClass {
        [MobilityClass::Static, MobilityClass::Hybrid, MobilityClass::Dynamic][rng.index(3)]
    }

    fn arb_device(rng: &mut SimRng) -> DeviceInfo {
        let techs: Vec<RadioTech> = (0..rng.range(0usize..3)).map(|_| arb_tech(rng)).collect();
        DeviceInfo {
            address: DeviceAddress::from_node_raw(rng.range(0u64..10_000)),
            name: arb_string(rng, b"abcXYZ09 _-", 24).into(),
            mobility: arb_mobility(rng),
            checksum: Checksum(rng.range(0u32..100_000)),
            techs: techs.into(),
        }
    }

    fn arb_service(rng: &mut SimRng) -> ServiceInfo {
        ServiceInfo::new(
            arb_string(rng, b"abcz09./-", 16),
            arb_string(rng, b"abcz09 ", 16),
            rng.range(0u32..=u16::MAX as u32) as u16,
        )
    }

    fn arb_neighbor(rng: &mut SimRng) -> NeighborRecord {
        NeighborRecord {
            info: arb_device(rng),
            jumps: rng.range(0u8..10),
            hop_qualities: (0..rng.range(0usize..6)).map(|_| rng.range(0u8..=255)).collect(),
            services: (0..rng.range(0usize..4)).map(|_| arb_service(rng)).collect(),
        }
    }

    fn arb_conn(rng: &mut SimRng) -> ConnectionId {
        ConnectionId::new(
            DeviceAddress::from_node_raw(rng.range(0u64..10_000)),
            rng.range(0u32..=u32::MAX),
        )
    }

    fn arb_error_code(rng: &mut SimRng) -> ErrorCode {
        [
            ErrorCode::ServiceUnavailable,
            ErrorCode::NoRouteToDestination,
            ErrorCode::BridgeBusy,
            ErrorCode::DownstreamFailed,
            ErrorCode::UnknownConnection,
            ErrorCode::Protocol,
        ][rng.index(6)]
    }

    fn arb_report(rng: &mut SimRng) -> Message {
        Message::InquiryResponse {
            device: arb_device(rng),
            services: (0..rng.range(0usize..4)).map(|_| arb_service(rng)).collect(),
            neighbors: (0..rng.range(0usize..4)).map(|_| arb_neighbor(rng)).collect(),
            bridge_load_percent: rng.range(0u8..=255),
        }
    }

    fn arb_message(rng: &mut SimRng) -> Message {
        match rng.index(8) {
            0 => Message::InquiryRequest {
                requester: arb_device(rng),
            },
            1 => arb_report(rng),
            2 => Message::ConnectRequest {
                conn_id: arb_conn(rng),
                service: arb_string(rng, b"abcz-", 16),
                client: arb_device(rng),
                reply_context: if rng.chance(0.5) { Some(arb_conn(rng)) } else { None },
            },
            3 => Message::BridgeRequest {
                conn_id: arb_conn(rng),
                destination: DeviceAddress::from_node_raw(rng.range(0u64..10_000)),
                service: arb_string(rng, b"abcz-", 16),
                client: arb_device(rng),
                reply_context: if rng.chance(0.5) { Some(arb_conn(rng)) } else { None },
            },
            4 => Message::Accept { conn_id: arb_conn(rng) },
            5 => Message::Error {
                conn_id: arb_conn(rng),
                code: arb_error_code(rng),
                detail: arb_string(rng, b" !abcz09~", 32),
            },
            6 => Message::Data {
                conn_id: arb_conn(rng),
                payload: (0..rng.range(0usize..256)).map(|_| rng.range(0u8..=255)).collect(),
            },
            _ => Message::Disconnect { conn_id: arb_conn(rng) },
        }
    }

    #[test]
    fn fuzz_roundtrip() {
        let mut rng = SimRng::new(0xC0DEC);
        for _ in 0..500 {
            let message = arb_message(&mut rng);
            let frame = encode(&message);
            let decoded = decode(&frame).unwrap();
            assert_eq!(decoded, message);
            // The node's send path — `encode_into` the thread's reused encode
            // buffer — must produce the same bytes, also after the buffer
            // has held a longer message.
            with_encode_buffer(|buffer| {
                encode_into(&message, buffer);
                assert_eq!(*buffer, frame);
            });
        }
    }

    #[test]
    fn the_encode_buffer_is_reused_and_a_nested_encode_gets_its_own() {
        let held = with_encode_buffer(|outer| {
            outer.extend_from_slice(&[1; 300]);
            with_encode_buffer(|inner| {
                assert_eq!(inner.capacity(), 0, "the outer encode holds the buffer");
                inner.push(2);
            });
            assert_eq!(*outer, [1; 300], "the nested encode wrote elsewhere");
            outer.capacity()
        });
        with_encode_buffer(|again| {
            assert!(again.is_empty(), "handed out cleared");
            assert_eq!(
                again.capacity(),
                held,
                "the outer buffer was put back, not the nested one"
            );
        });
    }

    #[test]
    fn view_and_decode_are_one_grammar() {
        // Whenever a frame carries the report tag, reading it in place and
        // decoding it must agree on everything: the same message, or the
        // same error — including which of two defects is reported first (a
        // bad tech byte ahead of the truncation point is an invalid value).
        // Non-report frames are in the mix because a mutation of byte 1 can
        // put the report tag on another message's body.
        // The checks that build nothing give decode's verdict on every frame.
        fn agree(frame: &[u8]) {
            let decoded = decode(frame);
            if frame.get(1) == Some(&TAG_INQUIRY_RESPONSE) {
                let viewed = view_inquiry_response(frame).map(|v| v.to_message());
                assert_eq!(viewed, decoded, "frame {frame:?}");
            }
            let checked = decoded.as_ref().map(|m| (frame[1], m.connection_id()));
            assert_eq!(validate(frame), checked.map_err(Clone::clone), "frame {frame:?}");
            assert_eq!(decode_like(frame, &device(1)), decoded, "frame {frame:?}");
        }
        // Known answer for that ordering: two announced techs, the first one
        // invalid, the second one cut off.
        let two_techs = encode(&Message::InquiryResponse {
            device: device(1),
            services: vec![],
            neighbors: vec![],
            bridge_load_percent: 0,
        });
        let techs_at = 2 + 6 + 2 + "dev1".len() + 1 + 4 + 1;
        let mut cut = two_techs[..techs_at + 1].to_vec();
        assert_eq!(decode(&cut), Err(WireError::Truncated));
        cut[techs_at] = 9;
        assert_eq!(decode(&cut), Err(WireError::InvalidValue("radio technology")));
        agree(&cut);

        let mut rng = SimRng::new(0x0E_6A44A2);
        for round in 0..160 {
            let message = if round % 4 == 0 {
                arb_message(&mut rng)
            } else {
                arb_report(&mut rng)
            };
            let frame = encode(&message);
            agree(&frame);
            assert_eq!(decode(&frame).as_ref(), Ok(&message));
            for len in 0..frame.len() {
                agree(&frame[..len]);
            }
            let mut mutated = frame.clone();
            for at in 0..frame.len() {
                let flip = 1 << rng.index(8);
                for byte in [0, 1, 2, 0xFF, frame[at] ^ flip, frame[at].wrapping_add(1)] {
                    mutated[at] = byte;
                    agree(&mutated);
                }
                mutated[at] = frame[at];
            }
        }
    }

    #[test]
    fn fuzz_random_bytes_never_panic() {
        // Decoding arbitrary garbage must never panic; it may of course
        // occasionally produce a valid message.
        let mut rng = SimRng::new(0xBAD_BEEF);
        for _ in 0..2000 {
            let bytes: Vec<u8> = (0..rng.range(0usize..128)).map(|_| rng.range(0u8..=255)).collect();
            let _ = decode(&bytes);
        }
    }

    #[test]
    fn fuzz_truncation_never_panics() {
        let mut rng = SimRng::new(0x7A71C);
        for _ in 0..300 {
            let message = arb_message(&mut rng);
            let frame = encode(&message);
            let cut = rng.range(0usize..64).min(frame.len());
            let _ = decode(&frame[..cut]);
        }
    }

    #[test]
    fn fuzz_bit_flips_never_panic() {
        // A noisy radio flips a handful of bits in otherwise valid frames —
        // the input shape this test feeds `decode`: mostly-plausible
        // structure with corrupted lengths, tags, counts and enum
        // discriminants. The decoder must return a
        // `WireError` (or, occasionally, a different valid message), never
        // panic or over-allocate.
        let mut rng = SimRng::new(0xB17F11);
        for _ in 0..3000 {
            let message = arb_message(&mut rng);
            let mut frame = encode(&message);
            if frame.is_empty() {
                continue;
            }
            let flips = 1 + rng.index(6);
            for _ in 0..flips {
                let byte = rng.index(frame.len());
                let bit = rng.index(8) as u8;
                frame[byte] ^= 1 << bit;
            }
            let _ = decode(&frame);
        }
    }

    #[test]
    fn fuzz_heavy_corruption_never_panics() {
        // Denser damage than a few flips: up to a quarter of the
        // frame's bits flipped.
        let mut rng = SimRng::new(0x0DEA_DB17);
        for _ in 0..1000 {
            let message = arb_message(&mut rng);
            let mut frame = encode(&message);
            if frame.is_empty() {
                continue;
            }
            let flips = 1 + rng.index(frame.len() * 2);
            for _ in 0..flips {
                let byte = rng.index(frame.len());
                let bit = rng.index(8) as u8;
                frame[byte] ^= 1 << bit;
            }
            let _ = decode(&frame);
        }
    }

    #[test]
    fn corrupted_counts_do_not_overallocate() {
        // A flipped length prefix must not reserve gigabytes: the decoder
        // caps pre-allocation by the bytes actually remaining. This frame
        // announces 65535 services in a response that is a few bytes long.
        let mut frame = encode(&Message::InquiryResponse {
            device: device(1),
            services: vec![],
            neighbors: vec![],
            bridge_load_percent: 0,
        });
        // The service count is the first u16 after the device block; find it
        // by re-encoding with one service and diffing is overkill — corrupt
        // every u16-aligned pair instead and decode them all.
        for i in 0..frame.len().saturating_sub(1) {
            let mut corrupt = frame.clone();
            corrupt[i] = 0xFF;
            corrupt[i + 1] = 0xFF;
            let _ = decode(&corrupt);
        }
        frame.truncate(frame.len() - 1);
        let _ = decode(&frame);
    }
}
