//! # idaa-netsim
//!
//! A metered, fault-injectable model of the z/OS ↔ accelerator network
//! link.
//!
//! The paper's headline claim is that accelerator-only tables *minimize
//! data movement* between DB2 and the accelerator. To make that claim
//! measurable and deterministic, every byte that crosses the federation
//! boundary in this reproduction goes through a [`NetLink`]: transfers are
//! counted per direction, and a virtual clock accumulates the time the
//! transfer would take on a link with configurable bandwidth and latency
//! (default: 10 GbE with 200 µs round-trip, roughly the IDAA appliance
//! attachment). Wall-clock time is never consumed — benchmarks report
//! compute (wall) and network (virtual) time separately and combined.
//!
//! ## Fault injection
//!
//! Real IDAA deployments survive accelerator outages; to reproduce that,
//! every injected failure — a lost or damaged message, an outage, a crash,
//! a torn write — is a named site (see [`sites`]) in one seeded
//! [`SitePlan`], consulted on the node's one [`FaultRegistry`]. A link
//! built with [`NetLink::with_registries`] consults its node's registry on
//! every attempt: the transfer site, the outage site (whose virtual-time
//! window is checked against [`NetLink::now`]), then the direction's drop
//! and corrupt sites. [`NetLink::transfer`] returns `Result<Duration,
//! LinkError>`, so every caller must decide what a lost message means for
//! its protocol. All randomness comes from the registry's one splitmix64
//! stream — replaying the same plan against the same workload yields
//! byte-identical metrics. Retry backoff ([`RetryPolicy`]) is charged to
//! the same virtual clock via [`NetLink::advance`], never to wall time.

use idaa_common::{wire, Counter, MetricsRegistry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Transfer direction over the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// DB2 → accelerator (statements, load batches, replication).
    ToAccel,
    /// Accelerator → DB2 (result sets, acknowledgements).
    ToHost,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::ToAccel => write!(f, "host→accelerator"),
            Direction::ToHost => write!(f, "accelerator→host"),
        }
    }
}

/// Link parameters.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Payload bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// One-way message latency.
    pub latency: Duration,
}

impl Default for LinkConfig {
    fn default() -> Self {
        // 10 GbE ≈ 1.25 GB/s payload, 100 µs one-way latency.
        LinkConfig {
            bandwidth_bytes_per_sec: 1.25e9,
            latency: Duration::from_micros(100),
        }
    }
}

/// Why a transfer failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// The message was lost in flight.
    Dropped { direction: Direction, bytes: usize },
    /// The message arrived damaged and was discarded by the receiver.
    Corrupted { direction: Direction, bytes: usize },
    /// The link is inside a scheduled outage window until `until`.
    Outage { until: Duration },
    /// A firing of [`sites::LINK_TRANSFER`]; `remaining` is what is still
    /// armed on that site.
    Injected { remaining: u64 },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Dropped { direction, bytes } => {
                write!(f, "message dropped ({bytes} bytes {direction})")
            }
            LinkError::Corrupted { direction, bytes } => {
                write!(f, "message corrupted ({bytes} bytes {direction})")
            }
            LinkError::Outage { until } => {
                write!(f, "link outage until t={:?} on the virtual clock", until)
            }
            LinkError::Injected { remaining } => {
                write!(f, "injected failure ({remaining} more scheduled)")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Accumulated link metrics.
///
/// `bytes_*`/`messages_*`/`wire_time` count only *delivered* messages, so
/// pre-existing byte-exact assertions hold regardless of faults; failed
/// attempts are tallied separately in `failures`/`fault_time`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkMetrics {
    pub bytes_to_accel: u64,
    pub bytes_to_host: u64,
    pub messages_to_accel: u64,
    pub messages_to_host: u64,
    /// Pre-encoding (logical) bytes represented by delivered host →
    /// accelerator messages. For control messages this equals the wire
    /// bytes; for encoded row frames ([`NetLink::transfer_frame`]) it is
    /// the frame's declared logical payload, so `bytes_*` vs.
    /// `logical_bytes_*` measures the wire codec's compression.
    pub logical_bytes_to_accel: u64,
    /// Pre-encoding (logical) bytes represented by delivered accelerator
    /// → host messages.
    pub logical_bytes_to_host: u64,
    /// Virtual time spent on the wire by delivered messages.
    pub wire_time: Duration,
    /// Transfer attempts that failed (dropped, corrupted, outage, injected).
    pub failures: u64,
    /// Virtual time consumed by failed attempts and retry backoff
    /// ([`NetLink::advance`]).
    pub fault_time: Duration,
}

impl LinkMetrics {
    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_to_accel + self.bytes_to_host
    }

    /// Total messages in either direction.
    pub fn total_messages(&self) -> u64 {
        self.messages_to_accel + self.messages_to_host
    }

    /// Total pre-encoding bytes represented by delivered messages.
    pub fn total_logical_bytes(&self) -> u64 {
        self.logical_bytes_to_accel + self.logical_bytes_to_host
    }

    /// Difference against an earlier snapshot of the same link.
    ///
    /// Saturating: snapshots passed in the wrong order (or taken of
    /// another link) clamp to zero instead of panicking on underflow.
    pub fn since(&self, earlier: &LinkMetrics) -> LinkMetrics {
        LinkMetrics {
            bytes_to_accel: self.bytes_to_accel.saturating_sub(earlier.bytes_to_accel),
            bytes_to_host: self.bytes_to_host.saturating_sub(earlier.bytes_to_host),
            messages_to_accel: self.messages_to_accel.saturating_sub(earlier.messages_to_accel),
            messages_to_host: self.messages_to_host.saturating_sub(earlier.messages_to_host),
            logical_bytes_to_accel: self
                .logical_bytes_to_accel
                .saturating_sub(earlier.logical_bytes_to_accel),
            logical_bytes_to_host: self
                .logical_bytes_to_host
                .saturating_sub(earlier.logical_bytes_to_host),
            wire_time: self.wire_time.saturating_sub(earlier.wire_time),
            failures: self.failures.saturating_sub(earlier.failures),
            fault_time: self.fault_time.saturating_sub(earlier.fault_time),
        }
    }

    /// Accumulate another link's counters into this snapshot (multi-link
    /// fleet totals). Every field adds, including `failures`/`fault_time`,
    /// so a fleet total reconciles exactly with the per-link metrics it
    /// was merged from.
    pub fn merge(&mut self, other: &LinkMetrics) {
        self.bytes_to_accel += other.bytes_to_accel;
        self.bytes_to_host += other.bytes_to_host;
        self.messages_to_accel += other.messages_to_accel;
        self.messages_to_host += other.messages_to_host;
        self.logical_bytes_to_accel += other.logical_bytes_to_accel;
        self.logical_bytes_to_host += other.logical_bytes_to_host;
        self.wire_time += other.wire_time;
        self.failures += other.failures;
        self.fault_time += other.fault_time;
    }

    /// Fold an iterator of per-link snapshots into one fleet total via
    /// [`LinkMetrics::merge`] — the only sanctioned way to sum traffic
    /// across a multi-accelerator topology (no hand-summed fields).
    pub fn merged<'a>(links: impl IntoIterator<Item = &'a LinkMetrics>) -> LinkMetrics {
        let mut total = LinkMetrics::default();
        for m in links {
            total.merge(m);
        }
        total
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from the splitmix64 stream.
fn next_unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// The metered link.
///
/// Delivered bytes and messages per direction, and failed attempts, are
/// [`Counter`] handles on a [`MetricsRegistry`], named
/// `{prefix}.delivered.{dir}.bytes`, `{prefix}.delivered.{dir}.msgs` (dir
/// `to_accel` or `to_host`) and `{prefix}.failures`. The registry is their
/// one home and [`NetLink::metrics`] reads them back. The logical bytes per
/// direction and the virtual clock (wire and fault time) are the link's
/// own; no registry name shows them.
#[derive(Debug)]
pub struct NetLink {
    config: LinkConfig,
    /// The node's fault registry; the link keeps no fault state of its own.
    faults: Arc<FaultRegistry>,
    to_accel: Delivered,
    to_host: Delivered,
    failures: Counter,
    wire_nanos: AtomicU64,
    fault_nanos: AtomicU64,
}

/// What one direction delivered.
#[derive(Debug)]
struct Delivered {
    bytes: Counter,
    messages: Counter,
    logical_bytes: AtomicU64,
}

impl Delivered {
    fn new(metrics: &MetricsRegistry, prefix: &str, direction: &str) -> Delivered {
        Delivered {
            bytes: metrics.counter_handle(&format!("{prefix}.delivered.{direction}.bytes")),
            messages: metrics.counter_handle(&format!("{prefix}.delivered.{direction}.msgs")),
            logical_bytes: AtomicU64::new(0),
        }
    }
}

impl Default for NetLink {
    fn default() -> Self {
        NetLink::new(LinkConfig::default())
    }
}

impl NetLink {
    /// Link with the given parameters, a fault registry of its own with
    /// nothing scheduled, and a metrics registry of its own.
    pub fn new(config: LinkConfig) -> NetLink {
        NetLink::with_registries(config, Arc::default(), &MetricsRegistry::default(), "link")
    }

    /// Link that consults `faults` — its node's registry — on every
    /// transfer attempt, and counts its traffic into `metrics` under
    /// `prefix` (`link` for node 0, `link.node{i}` for node i of a fleet).
    pub fn with_registries(
        config: LinkConfig,
        faults: Arc<FaultRegistry>,
        metrics: &MetricsRegistry,
        prefix: &str,
    ) -> NetLink {
        NetLink {
            config,
            faults,
            to_accel: Delivered::new(metrics, prefix, "to_accel"),
            to_host: Delivered::new(metrics, prefix, "to_host"),
            failures: metrics.counter_handle(&format!("{prefix}.failures")),
            wire_nanos: AtomicU64::new(0),
            fault_nanos: AtomicU64::new(0),
        }
    }

    /// The fault registry this link consults.
    pub fn faults(&self) -> &FaultRegistry {
        &self.faults
    }

    /// Current virtual time: wire time of delivered messages plus fault
    /// and backoff time. Windowed sites are positioned against this clock.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(
            self.wire_nanos.load(Ordering::Relaxed) + self.fault_nanos.load(Ordering::Relaxed),
        )
    }

    /// Advance the virtual clock without touching the wire — this is how
    /// retry backoff "sleeps" without consuming wall time.
    pub fn advance(&self, d: Duration) {
        self.fault_nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    fn fail(&self, cost: Duration, error: LinkError) -> Result<Duration, LinkError> {
        self.failures.add(1);
        self.fault_nanos.fetch_add(cost.as_nanos() as u64, Ordering::Relaxed);
        Err(error)
    }

    /// Attempt one control message of `bytes` payload in `direction`.
    ///
    /// On delivery, returns the virtual transfer time charged and updates
    /// the delivered-traffic counters (logical bytes equal wire bytes for
    /// control messages). On a fault, returns the [`LinkError`], charges
    /// the wasted attempt to `fault_time`, and leaves the
    /// delivered-traffic counters untouched.
    pub fn transfer(&self, direction: Direction, bytes: usize) -> Result<Duration, LinkError> {
        self.attempt(direction, bytes, bytes as u64, None)
    }

    /// Attempt one encoded row frame (see `idaa_common::wire`) in
    /// `direction`.
    ///
    /// The wire counters are charged the *encoded* frame length; the
    /// logical counters are charged the frame's declared pre-encoding
    /// payload. A firing corrupt site damages one frame bit in flight and
    /// the receiving side's checksum verification rejects it — the error
    /// path is the checksum actually failing, not a fiat discard — which
    /// surfaces as [`LinkError::Corrupted`] to the retry machinery.
    pub fn transfer_frame(&self, direction: Direction, frame: &[u8]) -> Result<Duration, LinkError> {
        self.transfer_frame_carrying(direction, frame, 0)
    }

    /// [`NetLink::transfer_frame`] for a frame that also carries `carried`
    /// bytes of control records (a transaction's BEGIN or PREPARE riding a
    /// write's frame), charged to the wire and logical counters alike, as
    /// a control message's are.
    pub fn transfer_frame_carrying(
        &self,
        direction: Direction,
        frame: &[u8],
        carried: usize,
    ) -> Result<Duration, LinkError> {
        let logical = wire::frame_logical_len(frame).unwrap_or(frame.len() as u64);
        self.attempt(direction, frame.len() + carried, logical + carried as u64, Some(frame))
    }

    fn attempt(
        &self,
        direction: Direction,
        bytes: usize,
        logical_bytes: u64,
        frame: Option<&[u8]>,
    ) -> Result<Duration, LinkError> {
        let (bandwidth, latency) = (self.config.bandwidth_bytes_per_sec, self.config.latency);
        let payload = Duration::from_secs_f64(bytes as f64 / bandwidth);

        match self.faults.link_fault(direction, self.now(), frame.is_some()) {
            None => {}
            // Nothing reaches the other side; the sender only wastes its
            // send latency noticing.
            Some(LinkFault::Injected { remaining }) => {
                return self.fail(latency, LinkError::Injected { remaining })
            }
            Some(LinkFault::Outage { until }) => {
                return self.fail(latency, LinkError::Outage { until })
            }
            // A dropped message still occupied the wire.
            Some(LinkFault::Dropped) => {
                return self.fail(latency + payload, LinkError::Dropped { direction, bytes })
            }
            // Control messages carry their own length-fixed CRC in the real
            // protocol, so their damage is always detected. A frame's damage
            // is detected only if its checksum fails; a flip the checksum
            // cannot see (not reachable for one bit under XXH64) is
            // delivered rather than pretending the receiver caught it.
            Some(LinkFault::Corrupted { damage }) => {
                let detected = match frame {
                    Some(frame) if !frame.is_empty() => {
                        let mut damaged = frame.to_vec();
                        let idx = (damage as usize) % damaged.len();
                        damaged[idx] ^= 1 << ((damage >> 32) & 7);
                        !wire::verify(&damaged)
                    }
                    _ => true,
                };
                if detected {
                    return self.fail(latency + payload, LinkError::Corrupted { direction, bytes });
                }
            }
        }

        let cost = latency + payload;
        let delivered = match direction {
            Direction::ToAccel => &self.to_accel,
            Direction::ToHost => &self.to_host,
        };
        delivered.bytes.add(bytes as u64);
        delivered.messages.add(1);
        delivered.logical_bytes.fetch_add(logical_bytes, Ordering::Relaxed);
        self.wire_nanos.fetch_add(cost.as_nanos() as u64, Ordering::Relaxed);
        Ok(cost)
    }

    /// Snapshot of the counters.
    pub fn metrics(&self) -> LinkMetrics {
        LinkMetrics {
            bytes_to_accel: self.to_accel.bytes.get(),
            bytes_to_host: self.to_host.bytes.get(),
            messages_to_accel: self.to_accel.messages.get(),
            messages_to_host: self.to_host.messages.get(),
            logical_bytes_to_accel: self.to_accel.logical_bytes.load(Ordering::Relaxed),
            logical_bytes_to_host: self.to_host.logical_bytes.load(Ordering::Relaxed),
            wire_time: Duration::from_nanos(self.wire_nanos.load(Ordering::Relaxed)),
            failures: self.failures.get(),
            fault_time: Duration::from_nanos(self.fault_nanos.load(Ordering::Relaxed)),
        }
    }
}

/// The one bounded retry: four attempts, the second 500 µs after the first
/// fails and each later one after twice the wait before it, all charged to
/// the link's virtual clock — a retry loop never sleeps on the wall clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    max_attempts: u32,
    backoff: Duration,
    multiplier: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, backoff: Duration::from_micros(500), multiplier: 2 }
    }
}

impl RetryPolicy {
    /// The attempt numbers, from 1 to the policy's bound. Before yielding
    /// each retry it advances `link`'s virtual clock by the backoff, so a
    /// caller that stops at a delivered attempt waits no further.
    pub fn attempts(self, link: &NetLink) -> impl Iterator<Item = u32> + '_ {
        let mut wait = self.backoff;
        (1..=self.max_attempts).inspect(move |&attempt| {
            if attempt > 1 {
                link.advance(wait);
                wait = wait.saturating_mul(self.multiplier);
            }
        })
    }

    /// Transfer with retry, so a retry sequence can outlast a short
    /// scheduled outage window. Returns the cost of the delivered attempt,
    /// or the last error once attempts are exhausted.
    pub fn transfer(
        &self,
        link: &NetLink,
        direction: Direction,
        bytes: usize,
    ) -> Result<Duration, LinkError> {
        self.run(link, || link.transfer(direction, bytes))
    }

    /// [`NetLink::transfer_frame`] with retry: each attempt re-sends the
    /// frame, so a checksum-rejected ([`LinkError::Corrupted`]) attempt is
    /// recovered by a clean retransmission.
    pub fn transfer_frame(
        &self,
        link: &NetLink,
        direction: Direction,
        frame: &[u8],
    ) -> Result<Duration, LinkError> {
        self.run(link, || link.transfer_frame(direction, frame))
    }

    fn run(
        &self,
        link: &NetLink,
        mut attempt_once: impl FnMut() -> Result<Duration, LinkError>,
    ) -> Result<Duration, LinkError> {
        let mut retries = self.attempts(link).skip(1);
        let mut sent = attempt_once();
        while sent.is_err() && retries.next().is_some() {
            sent = attempt_once();
        }
        sent
    }
}

/// Well-known failure-injection site names used across the workspace.
///
/// A site names the *place in the protocol* where a [`FaultRegistry`] can
/// fire — component code calls `registry.fire(site)` at these points, and
/// plans/tests refer to the same constants. Keeping them here (next to the
/// fault machinery) means every crate injects through one vocabulary.
pub mod sites {
    /// Link: the transfer attempt fails outright ([`LinkError::Injected`]).
    /// Armed or pinned to pinpoint one protocol message (e.g. "lose the
    /// 2PC vote but deliver the PREPARE request").
    ///
    /// [`LinkError::Injected`]: crate::LinkError::Injected
    pub const LINK_TRANSFER: &str = "link.transfer";
    /// Link: the link is down ([`LinkError::Outage`]). Usually given a
    /// virtual-time window, so a bounded retry loop can ride out a short
    /// outage — exactly how a real coordinator outlasts a failover blip.
    ///
    /// [`LinkError::Outage`]: crate::LinkError::Outage
    pub const LINK_OUTAGE: &str = "link.outage";
    /// Link: a host → accelerator message is lost in flight.
    pub const LINK_DROP_TO_ACCEL: &str = "link.to_accel.drop";
    /// Link: an accelerator → host message is lost in flight.
    pub const LINK_DROP_TO_HOST: &str = "link.to_host.drop";
    /// Link: a host → accelerator message arrives damaged; a frame's
    /// damaged bit is the firing's parameter draw.
    pub const LINK_CORRUPT_TO_ACCEL: &str = "link.to_accel.corrupt";
    /// Link: an accelerator → host message arrives damaged.
    pub const LINK_CORRUPT_TO_HOST: &str = "link.to_host.corrupt";
    /// Accelerator crash after bulk-load rows are ingested but before the
    /// internal load transaction commits.
    pub const MID_BULK_LOAD: &str = "accel.bulk_load.mid";
    /// Accelerator crash after a transaction's PREPARE is durably logged
    /// but before the coordinator's phase-2 COMMIT arrives — the classic
    /// in-doubt window.
    pub const POST_PREPARE: &str = "accel.prepare.post";
    /// Accelerator crash while applying a replication batch (after begin,
    /// before the apply transaction prepares).
    pub const MID_REPL_APPLY: &str = "accel.replication.apply.mid";
    /// Accelerator crash in the middle of writing a checkpoint, before the
    /// new checkpoint is atomically installed.
    pub const MID_CHECKPOINT: &str = "accel.checkpoint.mid";
    /// Coordinator-side injection: the accelerator's PREPARE vote comes
    /// back NO (no crash; replaces the old `fail_next_prepare` hook).
    pub const PREPARE_VOTE_NO: &str = "coord.prepare.vote_no";
    /// Accelerator crash while serving its partial of a scattered fleet
    /// query — after the shard request was delivered, before the partial
    /// result is produced. The coordinator fails the shard over to a
    /// replica.
    pub const MID_SCATTER: &str = "accel.scatter.mid";
    /// Storage fault: the in-flight commit-log append tears — the record's
    /// tail is lost mid-write and the node crashes. Recovery must truncate
    /// the torn record (it was never acknowledged).
    pub const TORN_LOG_APPEND: &str = "disk.log.append.torn";
    /// Storage fault: the node crashes in the middle of writing a new
    /// checkpoint, leaving a torn checkpoint image on disk. The previous
    /// checkpoint must stay authoritative.
    pub const TORN_CHECKPOINT: &str = "disk.checkpoint.torn";
    /// Storage fault: silent bit-rot flips a bit in an already-written
    /// commit-log record (segment chosen by the firing's parameter draw).
    pub const BITROT_LOG_SEGMENT: &str = "disk.log.segment.bitrot";
    /// Storage fault: silent bit-rot flips a bit in an already-written
    /// checkpoint image.
    pub const BITROT_CHECKPOINT: &str = "disk.checkpoint.bitrot";
    /// Storage fault: a recovery-time disk read fails transiently. The
    /// restart attempt errors and must be retried.
    pub const DISK_READ_FAIL: &str = "disk.read.fail";
}

/// Per-site failure schedule inside a [`SitePlan`].
///
/// A site fires on the listed 1-based `at_hits` (deterministic pinning for
/// targeted tests), on every hit inside its virtual-time `window`, and
/// additionally with `probability` per hit, drawn from the plan's seeded
/// stream (for randomized chaos sweeps). They can be combined; the
/// deterministic checks are evaluated first and consume no random draw, so
/// pinned hits never perturb the stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteSpec {
    /// Site name (see [`sites`]).
    pub site: String,
    /// Probability that any given hit fires, drawn from the seeded stream.
    pub probability: f64,
    /// Hit counts (1-based, per site) that fire unconditionally.
    pub at_hits: Vec<u64>,
    /// Virtual-time window `[start, end)` in which every hit fires. Only a
    /// link consults windowed sites, against its [`NetLink::now`].
    pub window: Option<Range<Duration>>,
}

/// A deterministic schedule of injection-site firings: link, crash and
/// storage faults alike, installed on a [`FaultRegistry`] with
/// [`FaultRegistry::set_plan`].
///
/// Probabilistic draws, and the per-firing parameter draws of
/// [`FaultRegistry::fire_disk`] and the corrupt sites, come from one
/// splitmix64 stream seeded by `seed` and are consumed in hit order, so a
/// given seed replays the exact same firing pattern. Sites with
/// `probability == 0` draw nothing, so the default plan is clean and free.
/// What a firing *means* (lost message, crash, NO vote, torn write, …) is
/// up to the component that consulted the registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SitePlan {
    /// Seed for the splitmix64 stream behind probabilistic firings and
    /// per-firing parameter draws.
    pub seed: u64,
    /// Per-site schedules; sites not listed never fire.
    pub sites: Vec<SiteSpec>,
}

impl SitePlan {
    /// Plan that fires `site` exactly once, on its `hit`-th (1-based) hit.
    pub fn at(site: &str, hit: u64) -> SitePlan {
        SitePlan::default().and_at(site, hit)
    }

    fn spec_mut(&mut self, site: &str) -> &mut SiteSpec {
        let i = self.sites.iter().position(|s| s.site == site).unwrap_or_else(|| {
            self.sites.push(SiteSpec { site: site.to_string(), ..SiteSpec::default() });
            self.sites.len() - 1
        });
        &mut self.sites[i]
    }

    /// Add a deterministic firing of `site` on its `hit`-th hit.
    pub fn and_at(mut self, site: &str, hit: u64) -> SitePlan {
        self.spec_mut(site).at_hits.push(hit);
        self
    }

    /// Add a probabilistic firing of `site` with probability `p` per hit.
    pub fn and_probabilistic(mut self, site: &str, p: f64) -> SitePlan {
        self.spec_mut(site).probability = p;
        self
    }

    /// Fire `site` on every hit whose virtual time lies in `window`.
    pub fn and_window(mut self, site: &str, window: Range<Duration>) -> SitePlan {
        self.spec_mut(site).window = Some(window);
        self
    }

    /// Plan seed builder (relevant with probabilistic sites, and for the
    /// per-firing parameter draws).
    pub fn seeded(mut self, seed: u64) -> SitePlan {
        self.seed = seed;
        self
    }
}

/// A pending one-shot arming: let `skip` consultations pass, then fire the
/// next `count`.
#[derive(Debug, Clone, Copy, Default)]
struct Armed {
    skip: u64,
    count: u64,
}

/// What the registry scheduled for one link transfer attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkFault {
    Injected { remaining: u64 },
    Outage { until: Duration },
    Dropped,
    /// `damage` is the parameter draw for a frame (0 for a control message).
    Corrupted { damage: u64 },
}

#[derive(Debug, Default)]
struct RegistryInner {
    plan: SitePlan,
    /// splitmix64 state for probabilistic sites and parameter draws.
    rng: u64,
    /// Per-site hit counters (how many times each site was consulted).
    hits: HashMap<String, u64>,
    /// One-shot armings from [`FaultRegistry::arm`], per site.
    armed: HashMap<String, Armed>,
    /// Log of firings as `(site, hit)` pairs, in firing order.
    fired: Vec<(String, u64)>,
}

impl RegistryInner {
    /// One consultation of `site` at virtual time `now` (`None` off the
    /// link, where windows never fire): bump the hit counter, then armed
    /// one-shot → pinned hit → window → one seeded draw if the site is
    /// probabilistic. Logs and returns the hit number when it fires.
    fn draw(&mut self, site: &str, now: Option<Duration>) -> Option<u64> {
        let hit = match self.hits.get_mut(site) {
            Some(n) => {
                *n += 1;
                *n
            }
            None => {
                self.hits.insert(site.to_string(), 1);
                1
            }
        };
        let armed = match self.armed.get_mut(site) {
            Some(a) if a.skip > 0 => {
                a.skip -= 1;
                false
            }
            Some(a) => {
                a.count -= 1;
                if a.count == 0 {
                    self.armed.remove(site);
                }
                true
            }
            None => false,
        };
        let rng = &mut self.rng;
        let fired = armed
            || self.plan.sites.iter().find(|s| s.site == site).is_some_and(|spec| {
                spec.at_hits.contains(&hit)
                    || spec.window.as_ref().zip(now).is_some_and(|(w, t)| w.contains(&t))
                    || (spec.probability > 0.0 && next_unit(rng) < spec.probability)
            });
        fired.then(|| {
            self.fired.push((site.to_string(), hit));
            hit
        })
    }
}

/// The unified failure-injection registry: every "make X fail next time"
/// hook in the workspace flows through here instead of ad-hoc
/// `AtomicBool`s or link-private counters, so all injection is seeded,
/// replayable, and observable in one place.
///
/// Component code marks its injectable points with [`FaultRegistry::fire`]
/// and reacts when it returns true; a [`NetLink`] consults its node's
/// registry on every transfer attempt. Tests either [`arm`](Self::arm) a
/// one-shot failure or install a [`SitePlan`] for seeded schedules.
#[derive(Debug, Default)]
pub struct FaultRegistry {
    inner: Mutex<RegistryInner>,
}

impl FaultRegistry {
    /// Install a plan; the random stream is reseeded from `plan.seed` and
    /// the per-site hit counters and the firing log restart from zero.
    /// Armings stay.
    pub fn set_plan(&self, plan: SitePlan) {
        let mut inner = self.inner.lock();
        inner.rng = plan.seed ^ 0x9e37_79b9_7f4a_7c15;
        inner.plan = plan;
        inner.hits.clear();
        inner.fired.clear();
    }

    /// Arm `site`, independent of any plan: let its next `skip` hits pass,
    /// then fire on the `n` after that. Arming again adds `n` and replaces
    /// the pending skip.
    pub fn arm(&self, site: &str, skip: u64, n: u64) {
        let mut inner = self.inner.lock();
        let armed = inner.armed.entry(site.to_string()).or_default();
        armed.skip = skip;
        armed.count = armed.count.saturating_add(n);
        if armed.count == 0 {
            inner.armed.remove(site);
        }
    }

    /// Consult the registry at `site`: increments the site's hit counter
    /// and returns true if an armed one-shot or the installed plan says
    /// this hit fails. Deterministic checks (armed counts, pinned
    /// `at_hits`) consume no random draw; a probabilistic site draws
    /// exactly one number per hit whether or not it fires.
    pub fn fire(&self, site: &str) -> bool {
        self.inner.lock().draw(site, None).is_some()
    }

    /// Consult the registry at a *disk* `site` (see the `disk.*` constants
    /// in [`sites`]). Same contract as [`fire`](Self::fire), except that a
    /// firing additionally draws one u64 *corruption parameter* from the
    /// stream and returns it: the durable store uses it to pick which
    /// segment/bit to damage, so a given seed replays the exact same
    /// corruption pattern. Returns `None` when the site does not fire.
    pub fn fire_disk(&self, site: &str) -> Option<u64> {
        let mut inner = self.inner.lock();
        inner.draw(site, None)?;
        Some(splitmix64(&mut inner.rng))
    }

    /// The link's consultation for one transfer attempt at virtual time
    /// `now`, under one lock: the transfer site, the outage site, then the
    /// direction's drop and corrupt sites, stopping at the first that
    /// fires. A corrupt firing on a `frame` takes one parameter draw, the
    /// damaged bit. On an idle registry it returns at once: one lock, no
    /// allocation, no hits counted.
    fn link_fault(&self, direction: Direction, now: Duration, frame: bool) -> Option<LinkFault> {
        let mut inner = self.inner.lock();
        if inner.plan.sites.is_empty() && inner.armed.is_empty() {
            return None;
        }
        if inner.draw(sites::LINK_TRANSFER, Some(now)).is_some() {
            let remaining = inner.armed.get(sites::LINK_TRANSFER).map_or(0, |a| a.count);
            return Some(LinkFault::Injected { remaining });
        }
        if inner.draw(sites::LINK_OUTAGE, Some(now)).is_some() {
            let spec = inner.plan.sites.iter().find(|s| s.site == sites::LINK_OUTAGE);
            let until = spec.and_then(|s| s.window.as_ref()).map_or(now, |w| w.end);
            return Some(LinkFault::Outage { until });
        }
        let (lost, damaged) = match direction {
            Direction::ToAccel => (sites::LINK_DROP_TO_ACCEL, sites::LINK_CORRUPT_TO_ACCEL),
            Direction::ToHost => (sites::LINK_DROP_TO_HOST, sites::LINK_CORRUPT_TO_HOST),
        };
        if inner.draw(lost, Some(now)).is_some() {
            return Some(LinkFault::Dropped);
        }
        inner.draw(damaged, Some(now))?;
        let damage = if frame { splitmix64(&mut inner.rng) } else { 0 };
        Some(LinkFault::Corrupted { damage })
    }

    /// How many times `site` has been consulted since the last
    /// [`set_plan`](Self::set_plan)/[`clear`](Self::clear). A link does not
    /// consult an idle registry (empty plan, nothing armed).
    pub fn hits(&self, site: &str) -> u64 {
        self.inner.lock().hits.get(site).copied().unwrap_or(0)
    }

    /// Firing log as `(site, hit)` pairs, in firing order.
    pub fn fired(&self) -> Vec<(String, u64)> {
        self.inner.lock().fired.clone()
    }

    /// Disarm everything: plan, one-shot armings, counters, and log.
    pub fn clear(&self) {
        *self.inner.lock() = RegistryInner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drop a fraction `p` of messages in both directions.
    fn dropping(seed: u64, p: f64) -> SitePlan {
        SitePlan::default()
            .seeded(seed)
            .and_probabilistic(sites::LINK_DROP_TO_ACCEL, p)
            .and_probabilistic(sites::LINK_DROP_TO_HOST, p)
    }

    fn outage(window: Range<Duration>) -> SitePlan {
        SitePlan::default().and_window(sites::LINK_OUTAGE, window)
    }

    #[test]
    fn transfer_accumulates_both_directions() {
        let link = NetLink::default();
        link.transfer(Direction::ToAccel, 1000).unwrap();
        link.transfer(Direction::ToAccel, 500).unwrap();
        link.transfer(Direction::ToHost, 200).unwrap();
        let m = link.metrics();
        assert_eq!(m.bytes_to_accel, 1500);
        assert_eq!(m.bytes_to_host, 200);
        assert_eq!(m.messages_to_accel, 2);
        assert_eq!(m.messages_to_host, 1);
        assert_eq!(m.total_bytes(), 1700);
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.failures, 0);
        assert_eq!(m.fault_time, Duration::ZERO);
    }

    #[test]
    fn wire_time_scales_with_bytes_and_latency() {
        let link = NetLink::new(LinkConfig {
            bandwidth_bytes_per_sec: 1000.0,
            latency: Duration::from_millis(1),
        });
        let t = link.transfer(Direction::ToAccel, 1000).unwrap();
        // 1 ms latency + 1 s payload.
        assert_eq!(t, Duration::from_millis(1001));
        let t2 = link.transfer(Direction::ToAccel, 0).unwrap();
        assert_eq!(t2, Duration::from_millis(1), "empty message still pays latency");
        assert_eq!(link.metrics().wire_time, Duration::from_millis(1002));
    }

    #[test]
    fn since_computes_deltas() {
        let link = NetLink::default();
        link.transfer(Direction::ToAccel, 100).unwrap();
        let before = link.metrics();
        link.transfer(Direction::ToAccel, 50).unwrap();
        link.transfer(Direction::ToHost, 10).unwrap();
        let delta = link.metrics().since(&before);
        assert_eq!(delta.bytes_to_accel, 50);
        assert_eq!(delta.bytes_to_host, 10);
        assert_eq!(delta.messages_to_accel, 1);
    }

    #[test]
    fn merge_accumulates_every_field() {
        let a = NetLink::default();
        let b = NetLink::default();
        a.transfer(Direction::ToAccel, 100).unwrap();
        b.transfer(Direction::ToAccel, 40).unwrap();
        b.transfer(Direction::ToHost, 10).unwrap();
        b.faults().arm(sites::LINK_TRANSFER, 0, 1);
        let _ = b.transfer(Direction::ToHost, 5);
        let total = LinkMetrics::merged([&a.metrics(), &b.metrics()]);
        assert_eq!(total.bytes_to_accel, 140);
        assert_eq!(total.bytes_to_host, 10);
        assert_eq!(total.messages_to_accel, 2);
        assert_eq!(total.messages_to_host, 1);
        assert_eq!(total.failures, 1);
        assert_eq!(
            total.wire_time,
            a.metrics().wire_time + b.metrics().wire_time
        );
    }

    #[test]
    fn since_saturates_on_snapshots_out_of_order() {
        let link = NetLink::default();
        link.transfer(Direction::ToAccel, 100).unwrap();
        let earlier = link.metrics();
        link.transfer(Direction::ToHost, 10).unwrap();
        // Asking how far the earlier snapshot is past the later one clamps
        // every delta to zero instead of panicking on unsigned underflow.
        let delta = earlier.since(&link.metrics());
        assert_eq!(delta, LinkMetrics::default());
    }

    #[test]
    fn since_a_snapshot_counts_only_what_came_after() {
        let link = NetLink::default();
        link.transfer(Direction::ToHost, 10).unwrap();
        link.faults().arm(sites::LINK_TRANSFER, 0, 1);
        let _ = link.transfer(Direction::ToAccel, 5);
        let mark = link.metrics();
        assert_eq!(link.metrics().since(&mark), LinkMetrics::default());
        link.transfer(Direction::ToAccel, 7).unwrap();
        let delta = link.metrics().since(&mark);
        assert_eq!((delta.bytes_to_accel, delta.messages_to_accel), (7, 1));
        assert_eq!((delta.bytes_to_host, delta.failures, delta.fault_time), (0, 0, Duration::ZERO));
    }

    #[test]
    fn a_link_counts_into_the_registry_it_is_given() {
        let metrics = MetricsRegistry::default();
        let link = NetLink::with_registries(
            LinkConfig::default(),
            Arc::default(),
            &metrics,
            "link.node2",
        );
        link.transfer(Direction::ToAccel, 100).unwrap();
        link.transfer(Direction::ToHost, 30).unwrap();
        link.faults().arm(sites::LINK_TRANSFER, 0, 1);
        let _ = link.transfer(Direction::ToHost, 5);
        assert_eq!(
            metrics.render(),
            "# counters\n\
             link.node2.delivered.to_accel.bytes = 100\n\
             link.node2.delivered.to_accel.msgs = 1\n\
             link.node2.delivered.to_host.bytes = 30\n\
             link.node2.delivered.to_host.msgs = 1\n\
             link.node2.failures = 1\n\
             # gauges\n"
        );
    }

    #[test]
    fn clean_plan_never_faults_and_draws_nothing() {
        let link = NetLink::default();
        link.faults().set_plan(SitePlan::default());
        for _ in 0..100 {
            link.transfer(Direction::ToAccel, 64).unwrap();
        }
        let m = link.metrics();
        assert_eq!(m.failures, 0);
        assert_eq!(m.fault_time, Duration::ZERO);
        assert_eq!(m.messages_to_accel, 100);
    }

    #[test]
    fn armed_transfer_site_fails_exactly_n() {
        let link = NetLink::default();
        link.faults().arm(sites::LINK_TRANSFER, 0, 2);
        assert!(matches!(
            link.transfer(Direction::ToAccel, 10),
            Err(LinkError::Injected { remaining: 1 })
        ));
        assert!(matches!(
            link.transfer(Direction::ToHost, 10),
            Err(LinkError::Injected { remaining: 0 })
        ));
        link.transfer(Direction::ToAccel, 10).unwrap();
        let m = link.metrics();
        assert_eq!(m.failures, 2);
        assert_eq!(m.messages_to_accel, 1);
        assert_eq!(m.bytes_to_accel, 10, "failed attempts do not count as delivered");
    }

    #[test]
    fn armed_transfer_site_skips_then_fails() {
        let link = NetLink::default();
        link.faults().arm(sites::LINK_TRANSFER, 2, 1);
        link.transfer(Direction::ToAccel, 10).unwrap();
        link.transfer(Direction::ToHost, 10).unwrap();
        assert!(link.transfer(Direction::ToAccel, 10).is_err());
        link.transfer(Direction::ToAccel, 10).unwrap();
    }

    #[test]
    fn outage_window_blocks_until_clock_passes() {
        let link = NetLink::new(LinkConfig {
            bandwidth_bytes_per_sec: 1.0e9,
            latency: Duration::from_millis(1),
        });
        link.faults().set_plan(outage(Duration::ZERO..Duration::from_millis(5)));
        let err = link.transfer(Direction::ToAccel, 100).unwrap_err();
        assert_eq!(err, LinkError::Outage { until: Duration::from_millis(5) });
        // Ride the clock past the window; transfers succeed again.
        link.advance(Duration::from_millis(10));
        link.transfer(Direction::ToAccel, 100).unwrap();
        assert_eq!(link.metrics().failures, 1);
    }

    #[test]
    fn drop_probability_one_loses_everything_and_charges_fault_time() {
        let link = NetLink::default();
        link.faults().set_plan(dropping(7, 1.0));
        for _ in 0..5 {
            assert!(matches!(
                link.transfer(Direction::ToAccel, 100),
                Err(LinkError::Dropped { direction: Direction::ToAccel, bytes: 100 })
            ));
        }
        let m = link.metrics();
        assert_eq!(m.failures, 5);
        assert_eq!(m.total_bytes(), 0);
        assert!(m.fault_time > Duration::ZERO, "dropped messages still burned wire time");
        assert_eq!(m.wire_time, Duration::ZERO);
    }

    #[test]
    fn same_seed_replays_identical_fault_pattern() {
        let run = |seed: u64| {
            let link = NetLink::default();
            link.faults().set_plan(dropping(seed, 0.3));
            let outcomes: Vec<bool> = (0..200)
                .map(|i| {
                    let dir = if i % 3 == 0 { Direction::ToHost } else { Direction::ToAccel };
                    link.transfer(dir, 64 + i).is_ok()
                })
                .collect();
            (outcomes, link.metrics())
        };
        let (o1, m1) = run(42);
        let (o2, m2) = run(42);
        assert_eq!(o1, o2);
        assert_eq!(m1, m2, "replaying a seed must yield byte-identical metrics");
        let (o3, _) = run(43);
        assert_ne!(o1, o3, "a different seed should fault differently");
    }

    #[test]
    fn retry_rides_out_injected_failures() {
        let link = NetLink::default();
        link.faults().arm(sites::LINK_TRANSFER, 0, 2);
        let policy = RetryPolicy::default();
        policy.transfer(&link, Direction::ToAccel, 50).unwrap();
        let m = link.metrics();
        assert_eq!(m.failures, 2);
        assert_eq!(m.messages_to_accel, 1);
        // Two backoffs elapsed on the virtual clock: 500 µs + 1 ms.
        assert!(m.fault_time >= Duration::from_micros(1500));
    }

    #[test]
    fn retry_exhausts_and_reports_last_error() {
        let link = NetLink::default();
        link.faults().set_plan(dropping(3, 1.0));
        let policy = RetryPolicy::default();
        let err = policy.transfer(&link, Direction::ToHost, 9).unwrap_err();
        assert!(matches!(err, LinkError::Dropped { direction: Direction::ToHost, bytes: 9 }));
        assert_eq!(link.metrics().failures, u64::from(policy.max_attempts));
    }

    fn sample_frame() -> Vec<u8> {
        use idaa_common::schema::{ColumnDef, Schema};
        use idaa_common::value::Value;
        use idaa_common::DataType;
        let schema = Schema::new_unchecked(vec![
            ColumnDef::new("K", DataType::BigInt),
            ColumnDef::new("V", DataType::Varchar(20)),
        ]);
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::BigInt(i), Value::Varchar(format!("row{}", i % 4))])
            .collect();
        wire::encode_frame(&schema, &rows)
    }

    #[test]
    fn frame_transfer_charges_wire_and_logical_bytes() {
        let link = NetLink::default();
        let frame = sample_frame();
        let logical = wire::frame_logical_len(&frame).unwrap();
        assert!(logical > frame.len() as u64, "sample frame must compress");
        link.transfer_frame(Direction::ToAccel, &frame).unwrap();
        let m = link.metrics();
        assert_eq!(m.bytes_to_accel, frame.len() as u64);
        assert_eq!(m.logical_bytes_to_accel, logical);
        assert_eq!(m.messages_to_accel, 1);
        // Control transfers count the same bytes on both ledgers.
        link.transfer(Direction::ToHost, 32).unwrap();
        let m = link.metrics();
        assert_eq!(m.bytes_to_host, 32);
        assert_eq!(m.logical_bytes_to_host, 32);
        assert_eq!(m.total_logical_bytes(), logical + 32);
    }

    #[test]
    fn corrupt_fault_on_frame_is_caught_by_checksum_and_retried() {
        let link = NetLink::default();
        link.faults().set_plan(
            SitePlan::default().seeded(11).and_probabilistic(sites::LINK_CORRUPT_TO_ACCEL, 1.0),
        );
        let frame = sample_frame();
        let err = link.transfer_frame(Direction::ToAccel, &frame).unwrap_err();
        assert!(matches!(err, LinkError::Corrupted { direction: Direction::ToAccel, .. }));
        let m = link.metrics();
        assert_eq!(m.failures, 1);
        assert_eq!(m.bytes_to_accel, 0, "a rejected frame is not delivered traffic");
        assert_eq!(m.logical_bytes_to_accel, 0);

        // With an intermittent corruptor, the retry loop converges and only
        // the delivered attempt lands on the traffic ledgers.
        link.faults().clear();
        link.faults().set_plan(
            SitePlan::default().seeded(11).and_probabilistic(sites::LINK_CORRUPT_TO_ACCEL, 0.5),
        );
        let before = link.metrics();
        let mut delivered = 0;
        while delivered < 20 {
            // A 50% corruptor can exhaust a whole retry budget; keep
            // resending, as a statement-level caller would.
            if RetryPolicy::default().transfer_frame(&link, Direction::ToAccel, &frame).is_ok() {
                delivered += 1;
            }
        }
        let m = link.metrics().since(&before);
        assert_eq!(m.messages_to_accel, 20);
        assert_eq!(m.bytes_to_accel, 20 * frame.len() as u64);
        assert!(m.failures > 0, "a 50% corruptor must have fired at least once in 20 sends");
    }

    #[test]
    fn corrupt_frame_faults_replay_byte_identically() {
        let run = |seed: u64| {
            let link = NetLink::default();
            link.faults().set_plan(
                SitePlan::default()
                    .seeded(seed)
                    .and_probabilistic(sites::LINK_CORRUPT_TO_ACCEL, 0.3)
                    .and_probabilistic(sites::LINK_CORRUPT_TO_HOST, 0.3),
            );
            let frame = sample_frame();
            let outcomes: Vec<bool> = (0..100)
                .map(|i| {
                    let dir = if i % 3 == 0 { Direction::ToHost } else { Direction::ToAccel };
                    link.transfer_frame(dir, &frame).is_ok()
                })
                .collect();
            (outcomes, link.metrics())
        };
        let (o1, m1) = run(9);
        let (o2, m2) = run(9);
        assert_eq!(o1, o2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn retry_backoff_outlasts_short_outage() {
        let link = NetLink::new(LinkConfig {
            bandwidth_bytes_per_sec: 1.0e9,
            latency: Duration::from_micros(100),
        });
        link.faults().set_plan(outage(Duration::ZERO..Duration::from_micros(800)));
        // Default policy backs off 500 µs then 1 ms — the clock passes the
        // 800 µs window boundary before attempts run out.
        RetryPolicy::default().transfer(&link, Direction::ToAccel, 10).unwrap();
        assert!(link.metrics().messages_to_accel == 1);
    }

    #[test]
    fn outage_window_fires_at_start_not_at_end() {
        let (start, end) = (Duration::from_millis(2), Duration::from_millis(5));
        let link =
            NetLink::new(LinkConfig { bandwidth_bytes_per_sec: 1.0e9, latency: Duration::ZERO });
        link.faults().set_plan(outage(start..end));
        link.advance(start - Duration::from_nanos(1));
        link.transfer(Direction::ToAccel, 0).unwrap();
        link.advance(Duration::from_nanos(1));
        assert_eq!(link.now(), start);
        assert_eq!(link.transfer(Direction::ToAccel, 0), Err(LinkError::Outage { until: end }));
        link.advance(end - start - Duration::from_nanos(1));
        assert!(link.transfer(Direction::ToHost, 0).is_err(), "the last instant is inside");
        link.advance(Duration::from_nanos(1));
        assert_eq!(link.now(), end);
        link.transfer(Direction::ToAccel, 0).unwrap();
        let outage = sites::LINK_OUTAGE.to_string();
        assert_eq!(link.faults().fired(), vec![(outage.clone(), 2), (outage, 3)]);
    }

    #[test]
    fn registry_armed_one_shot_fires_exactly_n() {
        let reg = FaultRegistry::default();
        assert!(!reg.fire(sites::POST_PREPARE), "nothing armed yet");
        reg.arm(sites::POST_PREPARE, 0, 2);
        assert!(reg.fire(sites::POST_PREPARE));
        assert!(!reg.fire(sites::MID_BULK_LOAD), "other sites unaffected");
        assert!(reg.fire(sites::POST_PREPARE));
        assert!(!reg.fire(sites::POST_PREPARE), "arming exhausted");
        assert_eq!(reg.hits(sites::POST_PREPARE), 4);
        assert_eq!(
            reg.fired(),
            vec![(sites::POST_PREPARE.to_string(), 2), (sites::POST_PREPARE.to_string(), 3)]
        );
    }

    #[test]
    fn registry_pinned_hit_fires_deterministically() {
        let reg = FaultRegistry::default();
        reg.set_plan(SitePlan::at(sites::MID_REPL_APPLY, 3));
        assert!(!reg.fire(sites::MID_REPL_APPLY));
        assert!(!reg.fire(sites::MID_REPL_APPLY));
        assert!(reg.fire(sites::MID_REPL_APPLY), "third hit fires");
        assert!(!reg.fire(sites::MID_REPL_APPLY));
        // Reinstalling the plan restarts the hit counters.
        reg.set_plan(SitePlan::at(sites::MID_REPL_APPLY, 1));
        assert!(reg.fire(sites::MID_REPL_APPLY));
    }

    #[test]
    fn registry_probabilistic_sites_replay_per_seed() {
        let run = |seed: u64| {
            let reg = FaultRegistry::default();
            reg.set_plan(
                SitePlan::default()
                    .seeded(seed)
                    .and_probabilistic(sites::MID_BULK_LOAD, 0.3)
                    // A pinned-only site must not perturb the stream.
                    .and_at(sites::MID_CHECKPOINT, 2),
            );
            let mut outcomes = Vec::new();
            for i in 0..100 {
                outcomes.push(reg.fire(sites::MID_BULK_LOAD));
                if i % 5 == 0 {
                    outcomes.push(reg.fire(sites::MID_CHECKPOINT));
                }
            }
            outcomes
        };
        assert_eq!(run(17), run(17), "same seed replays the same firings");
        assert_ne!(run(17), run(18), "a different seed fires differently");
    }

    #[test]
    fn registry_clear_disarms_everything() {
        let reg = FaultRegistry::default();
        reg.arm(sites::PREPARE_VOTE_NO, 0, 5);
        reg.set_plan(
            SitePlan::at(sites::POST_PREPARE, 1)
                .and_at(sites::BITROT_LOG_SEGMENT, 1)
                .and_window(sites::LINK_OUTAGE, Duration::ZERO..Duration::MAX),
        );
        reg.clear();
        assert!(!reg.fire(sites::PREPARE_VOTE_NO));
        assert!(!reg.fire(sites::POST_PREPARE));
        assert!(reg.fire_disk(sites::BITROT_LOG_SEGMENT).is_none());
        assert_eq!(reg.link_fault(Direction::ToAccel, Duration::ZERO, false), None);
        assert!(reg.fired().is_empty());
    }

    #[test]
    fn registry_disk_pinned_hits_fire_with_deterministic_params() {
        let run = || {
            let reg = FaultRegistry::default();
            reg.set_plan(
                SitePlan::at(sites::TORN_LOG_APPEND, 2)
                    .and_at(sites::BITROT_CHECKPOINT, 1)
                    .seeded(0xD15C),
            );
            let mut draws = Vec::new();
            for _ in 0..4 {
                draws.push(reg.fire_disk(sites::TORN_LOG_APPEND));
                draws.push(reg.fire_disk(sites::BITROT_CHECKPOINT));
            }
            (draws, reg.fired())
        };
        let (draws, fired) = run();
        assert!(draws[0].is_none(), "first torn-append hit clean");
        assert!(draws[1].is_some(), "first bitrot hit fires");
        assert!(draws[2].is_some(), "second torn-append hit fires");
        assert!(draws[3..].iter().all(Option::is_none), "one-shot pins");
        assert_eq!(
            fired,
            vec![
                (sites::BITROT_CHECKPOINT.to_string(), 1),
                (sites::TORN_LOG_APPEND.to_string(), 2)
            ]
        );
        assert_eq!(run(), (draws, fired), "same seed replays params exactly");
    }

    #[test]
    fn registry_one_stream_serves_link_crash_and_disk_sites() {
        let run = |seed: u64| {
            let link = NetLink::default();
            let reg = link.faults();
            reg.set_plan(
                dropping(seed, 0.2)
                    .and_probabilistic(sites::MID_BULK_LOAD, 0.2)
                    .and_probabilistic(sites::BITROT_LOG_SEGMENT, 0.2),
            );
            let mut outcomes = Vec::new();
            for i in 0..60 {
                outcomes.push(link.transfer(Direction::ToAccel, i).is_ok());
                outcomes.push(reg.fire(sites::MID_BULK_LOAD));
                outcomes.push(reg.fire_disk(sites::BITROT_LOG_SEGMENT).is_some());
            }
            (outcomes, reg.fired(), link.metrics())
        };
        let (outcomes, fired, metrics) = run(7);
        assert_eq!(run(7), (outcomes.clone(), fired.clone(), metrics), "one seed, one replay");
        for site in [sites::LINK_DROP_TO_ACCEL, sites::MID_BULK_LOAD, sites::BITROT_LOG_SEGMENT] {
            assert!(fired.iter().any(|(s, _)| s == site), "{site} never fired");
        }
        assert_ne!(run(8).0, outcomes, "a different seed fires differently");
    }
}
