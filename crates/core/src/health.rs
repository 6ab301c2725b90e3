//! Accelerator health tracking and idempotent-delivery bookkeeping.
//!
//! Real IDAA coordinators watch the accelerator's heartbeat: after a few
//! consecutive communication failures DB2 marks the accelerator *stopped*
//! and routes eligible work back to the host; periodic probes detect when
//! it comes back and re-enable offload. [`HealthMonitor`] reproduces that
//! state machine against the simulated link, with all timing on the
//! virtual clock so tests stay deterministic and fast.
//!
//! [`SeqTracker`] is the accelerator-side half of idempotent statement
//! shipping: every shipped statement carries a per-session sequence
//! number, and a redelivered (retried) statement with an already-seen
//! number is discarded instead of applied twice.

use idaa_netsim::{Direction, NetLink, RetryPolicy};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// Coordinator's view of the accelerator, from best to worst.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// All recent transfers succeeded; offload is enabled.
    #[default]
    Online,
    /// Some transfers failed; offload still allowed, but suspect.
    Degraded,
    /// Consecutive failures exhausted the threshold; the coordinator
    /// treats the accelerator as unreachable and falls back to the host
    /// until a probe succeeds.
    Offline,
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthState::Online => write!(f, "online"),
            HealthState::Degraded => write!(f, "degraded"),
            HealthState::Offline => write!(f, "offline"),
        }
    }
}

/// Consecutive failures before `Online` decays to `Degraded`.
const DEGRADED_AFTER: u32 = 1;
/// Consecutive failures before the accelerator is declared `Offline`.
const OFFLINE_AFTER: u32 = 3;
/// Consecutive successes needed to return to `Online`.
const RECOVER_AFTER: u32 = 2;
/// Minimum virtual time between recovery probes while `Offline`.
const PROBE_INTERVAL: Duration = Duration::from_millis(5);
/// Payload of one probe ping (per direction).
const PROBE_BYTES: usize = 16;

#[derive(Debug, Default)]
struct HealthInner {
    state: HealthState,
    fail_streak: u32,
    ok_streak: u32,
    last_probe: Option<Duration>,
}

/// The accelerator health state machine (`Online → Degraded → Offline`
/// on consecutive failures, back to `Online` on consecutive successes).
#[derive(Debug, Default)]
pub struct HealthMonitor {
    inner: Mutex<HealthInner>,
}

impl HealthMonitor {
    /// Current state.
    pub fn state(&self) -> HealthState {
        self.inner.lock().state
    }

    /// True unless the accelerator has been declared `Offline`.
    pub fn is_available(&self) -> bool {
        self.state() != HealthState::Offline
    }

    /// Record a successful round-trip; returns the resulting state.
    pub fn record_success(&self) -> HealthState {
        let mut i = self.inner.lock();
        i.fail_streak = 0;
        if i.state != HealthState::Online {
            i.ok_streak += 1;
            if i.ok_streak >= RECOVER_AFTER {
                i.state = HealthState::Online;
                i.ok_streak = 0;
            }
        }
        i.state
    }

    /// Record a communication failure (one per exhausted retry round, not
    /// per attempt); returns the resulting state.
    pub fn record_failure(&self) -> HealthState {
        let mut i = self.inner.lock();
        i.ok_streak = 0;
        i.fail_streak = i.fail_streak.saturating_add(1);
        if i.fail_streak >= OFFLINE_AFTER {
            i.state = HealthState::Offline;
        } else if i.fail_streak >= DEGRADED_AFTER {
            i.state = i.state.max(HealthState::Degraded);
        }
        i.state
    }

    /// Declare the accelerator `Offline` immediately, bypassing the
    /// failure-streak decay — the coordinator calls this when it *knows*
    /// the accelerator crashed (a crash point fired), rather than
    /// inferring unreachability from lost messages. Streaks reset so the
    /// usual probe → consecutive-successes path drives recovery.
    pub fn force_offline(&self) {
        let mut i = self.inner.lock();
        i.state = HealthState::Offline;
        i.fail_streak = 0;
        i.ok_streak = 0;
    }

    /// Whether an `Offline` accelerator is due for a recovery probe at
    /// virtual time `now` (probes are rate-limited to `PROBE_INTERVAL`).
    pub fn should_probe(&self, now: Duration) -> bool {
        let i = self.inner.lock();
        i.state == HealthState::Offline && i.last_probe.is_none_or(|t| now >= t + PROBE_INTERVAL)
    }

    /// Send one probe ping each way over `link`. Probe results feed the
    /// same streak counters as regular traffic; a single full round-trip
    /// is enough to return `Online`. Returns true if the accelerator is
    /// `Online` afterwards.
    pub fn probe(&self, link: &NetLink) -> bool {
        self.inner.lock().last_probe = Some(link.now());
        for direction in [Direction::ToAccel, Direction::ToHost] {
            if RetryPolicy::default().transfer(link, direction, PROBE_BYTES).is_err() {
                self.record_failure();
                return false;
            }
            self.record_success();
        }
        self.state() == HealthState::Online
    }
}

/// Outcome of delivering a sequenced message to the [`SeqTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// First delivery in the current epoch: apply the statement.
    Apply,
    /// Already seen in the current epoch: discard (idempotent retry).
    Duplicate,
    /// Stamped with a pre-restart recovery epoch: the sender's view of
    /// the accelerator predates the crash — discard without applying.
    Fenced,
}

/// Highest delivered sequence number per statement stream (session id),
/// fenced by the accelerator's recovery epoch.
///
/// Shipping a statement is idempotent: a retry that redelivers an
/// already-seen `(stream, seq)` pair is recognized and discarded by the
/// receiver, so a retried statement can never execute twice. The tracker
/// is *volatile* accelerator state: a crash–restart bumps the recovery
/// epoch, [`SeqTracker::reset`] clears the per-stream map, and anything
/// still stamped with an older epoch is [`Delivery::Fenced`] off rather
/// than matched against post-restart sequence state.
#[derive(Debug, Default)]
pub struct SeqTracker {
    inner: Mutex<SeqInner>,
}

#[derive(Debug, Default)]
struct SeqInner {
    epoch: u64,
    high: HashMap<u64, u64>,
}

impl SeqTracker {
    /// Record delivery of `(stream, seq)` stamped with the sender's view
    /// of the recovery `epoch`. A newer epoch than the tracker's means
    /// the tracker missed a restart: it resets itself before judging the
    /// delivery. An older epoch is fenced off unconditionally.
    pub fn deliver_at(&self, stream: u64, seq: u64, epoch: u64) -> Delivery {
        let mut inner = self.inner.lock();
        if epoch < inner.epoch {
            return Delivery::Fenced;
        }
        if epoch > inner.epoch {
            inner.epoch = epoch;
            inner.high.clear();
        }
        let entry = inner.high.entry(stream).or_insert(0);
        if seq > *entry {
            *entry = seq;
            Delivery::Apply
        } else {
            Delivery::Duplicate
        }
    }

    /// A restart happened: adopt the new recovery epoch and drop all
    /// pre-crash sequence state (it described the previous incarnation).
    /// Older epochs are ignored — a stale reset cannot un-fence history.
    pub fn reset(&self, epoch: u64) {
        let mut inner = self.inner.lock();
        if epoch > inner.epoch {
            inner.epoch = epoch;
            inner.high.clear();
        }
    }

    /// The tracker's current recovery epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Highest sequence number seen on `stream` (0 if none).
    pub fn high_water(&self, stream: u64) -> u64 {
        self.inner.lock().high.get(&stream).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idaa_netsim::{sites, LinkConfig, SitePlan};

    #[test]
    fn decays_through_degraded_to_offline_and_recovers() {
        let h = HealthMonitor::default();
        assert_eq!(h.state(), HealthState::Online);
        assert_eq!(h.record_failure(), HealthState::Degraded);
        assert_eq!(h.record_failure(), HealthState::Degraded);
        assert_eq!(h.record_failure(), HealthState::Offline);
        assert!(!h.is_available());
        assert_eq!(h.record_success(), HealthState::Offline, "one success is not enough");
        assert_eq!(h.record_success(), HealthState::Online);
        assert!(h.is_available());
    }

    #[test]
    fn success_resets_failure_streak() {
        let h = HealthMonitor::default();
        h.record_failure();
        h.record_failure();
        h.record_success();
        h.record_success();
        assert_eq!(h.state(), HealthState::Online);
        assert_eq!(h.record_failure(), HealthState::Degraded, "streak restarted");
        assert_ne!(h.record_failure(), HealthState::Offline);
    }

    #[test]
    fn probe_rate_limited_on_virtual_clock() {
        let h = HealthMonitor::default();
        let link = NetLink::new(LinkConfig::default());
        for _ in 0..3 {
            h.record_failure();
        }
        assert!(h.should_probe(link.now()));
        // A failed probe during an outage leaves us Offline and throttled.
        let window = Duration::ZERO..Duration::from_secs(1);
        link.faults().set_plan(SitePlan::default().and_window(sites::LINK_OUTAGE, window));
        assert!(!h.probe(&link));
        assert!(!h.should_probe(link.now()), "probe just happened");
        link.advance(Duration::from_secs(2));
        assert!(h.should_probe(link.now()));
        // Past the window the probe round-trips and restores Online.
        assert!(h.probe(&link));
        assert_eq!(h.state(), HealthState::Online);
    }

    #[test]
    fn seq_tracker_discards_redelivery() {
        let t = SeqTracker::default();
        assert_eq!(t.deliver_at(7, 1, 0), Delivery::Apply);
        assert_eq!(t.deliver_at(7, 2, 0), Delivery::Apply);
        assert_eq!(t.deliver_at(7, 2, 0), Delivery::Duplicate, "retried statement must not apply twice");
        assert_eq!(t.deliver_at(7, 1, 0), Delivery::Duplicate);
        assert_eq!(t.deliver_at(8, 1, 0), Delivery::Apply, "streams are independent");
        assert_eq!(t.high_water(7), 2);
        assert_eq!(t.high_water(9), 0);
    }

    #[test]
    fn seq_tracker_epoch_fences_pre_crash_state() {
        let t = SeqTracker::default();
        assert_eq!(t.deliver_at(7, 1, 1), Delivery::Apply);
        assert_eq!(t.deliver_at(7, 1, 1), Delivery::Duplicate);
        // The accelerator restarts: epoch 2 fences everything older.
        t.reset(2);
        assert_eq!(t.epoch(), 2);
        assert_eq!(t.high_water(7), 0, "pre-crash sequence state is gone");
        assert_eq!(
            t.deliver_at(7, 9, 1),
            Delivery::Fenced,
            "a message stamped with the dead incarnation must not apply"
        );
        // The same (stream, seq) re-sent under the new epoch is fresh.
        assert_eq!(t.deliver_at(7, 1, 2), Delivery::Apply);
        // A stale reset cannot roll the epoch back.
        t.reset(1);
        assert_eq!(t.epoch(), 2);
        assert_eq!(t.high_water(7), 1);
    }

    #[test]
    fn seq_tracker_adopts_newer_epoch_on_delivery() {
        let t = SeqTracker::default();
        assert_eq!(t.deliver_at(3, 5, 1), Delivery::Apply);
        // A delivery already stamped with a newer epoch implies a restart
        // the tracker has not seen yet: old state clears first.
        assert_eq!(t.deliver_at(3, 5, 2), Delivery::Apply);
        assert_eq!(t.epoch(), 2);
        assert_eq!(t.deliver_at(3, 5, 2), Delivery::Duplicate);
    }

    #[test]
    fn force_offline_skips_streak_decay() {
        let h = HealthMonitor::default();
        assert_eq!(h.state(), HealthState::Online);
        h.force_offline();
        assert_eq!(h.state(), HealthState::Offline);
        assert!(!h.is_available());
        // Recovery follows the normal consecutive-success path.
        assert_eq!(h.record_success(), HealthState::Offline);
        assert_eq!(h.record_success(), HealthState::Online);
    }
}
