//! The session registry: generation-stamped identities, admission
//! control and the server-wide counters behind `serve status`.
//!
//! The registry is the state shared between the accept loop, the worker
//! event loops and the `serve` Tcl command. To keep that sharing off
//! the hot path it is *sharded*: slots, per-slot bookkeeping and parked
//! snapshots live in one [`Mutex`]-guarded shard per worker, and a
//! session's stamped id pins it to its shard for life
//! (`shard = slot % nshards`). Workers therefore never contend on each
//! other's locks — only `serve status` / `serve metrics` walk all
//! shards, aggregating at read time. The only cross-shard state is a
//! pair of atomics (the active count backing exact `maxSessions`
//! admission and the draining flag) plus rarely-touched configuration
//! (limits, park directory).
//!
//! Each shard also owns a [`Rollup`]: the metric table's counters as
//! lock-free atomics. Every session store on the shard rolls its
//! counters up into it, and the registry counts the events no session
//! sees there (admissions, admission sheds, closes, accept errors).
//! `serve status` and the `serve.server.*` metrics rows are one view,
//! `FACTS`, over the summed shard totals, so every server event is
//! counted once, at one call site.

use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use wafe_trace::{Kind, Metric, Rollup};

use crate::event_loop::Wake;

/// A session identity that cannot be confused with a later tenant of
/// the same slot: the slot index is reused, the generation never is.
/// A release carrying a stale generation is ignored, which is what
/// makes "evict and the transport notices later" race-free.
///
/// The slot also encodes placement: `slot % nshards` is the registry
/// shard and (with one worker per shard) the worker that owns the
/// session, so routing is a modulo, not a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId {
    /// Index into the registry's slot table (reused).
    pub slot: u32,
    /// Bumped every time the slot is released (never reused).
    pub generation: u32,
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.slot, self.generation)
    }
}

/// Why an admission was refused. Sheds are explicit protocol replies
/// (`!shed <reason>`), never silent drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The `maxSessions` limit is reached.
    MaxSessions,
    /// The server is draining: no new sessions, existing ones flush.
    Draining,
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShedReason::MaxSessions => "max-sessions",
            ShedReason::Draining => "draining",
        })
    }
}

/// Tuning knobs of the server, mutable at runtime via `serve limits`.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Concurrent sessions admitted before `!shed max-sessions`.
    pub max_sessions: usize,
    /// Inbound lines a session queues before `!shed queue-full`
    /// (applies to sessions attached after a change).
    pub queue_depth: usize,
    /// Lines one session may run per scheduler sweep — the fairness
    /// quantum: a flooding client only ever gets this much ahead.
    pub quantum: usize,
    /// Evict a session idle for this many virtual milliseconds
    /// (0 = never).
    pub idle_evict_ms: u64,
    /// After a drain begins, sessions still busy past this many virtual
    /// milliseconds are cut off with their queues unflushed.
    pub drain_timeout_ms: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_sessions: 128,
            queue_depth: 256,
            quantum: 32,
            idle_evict_ms: 0,
            drain_timeout_ms: 5_000,
        }
    }
}

/// The Tcl-visible limit keys, in `serve limits` listing order.
pub const LIMIT_KEYS: &[&str] = &[
    "maxSessions",
    "queueDepth",
    "quantum",
    "idleEvict",
    "drainTimeout",
];

impl Limits {
    /// The value of a Tcl-visible key ([`LIMIT_KEYS`]).
    pub fn get(&self, key: &str) -> Option<String> {
        Some(match key {
            "maxSessions" => self.max_sessions.to_string(),
            "queueDepth" => self.queue_depth.to_string(),
            "quantum" => self.quantum.to_string(),
            "idleEvict" => self.idle_evict_ms.to_string(),
            "drainTimeout" => self.drain_timeout_ms.to_string(),
            _ => return None,
        })
    }

    /// Sets a Tcl-visible key from its string form.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let n: u64 = value
            .trim()
            .parse()
            .map_err(|_| format!("expected integer but got \"{value}\""))?;
        match key {
            "maxSessions" => self.max_sessions = n as usize,
            "queueDepth" => self.queue_depth = n as usize,
            "quantum" => self.quantum = (n as usize).max(1),
            "idleEvict" => self.idle_evict_ms = n,
            "drainTimeout" => self.drain_timeout_ms = n,
            _ => {
                return Err(format!(
                    "unknown limit \"{key}\": must be one of {}",
                    LIMIT_KEYS.join(", ")
                ))
            }
        }
        Ok(())
    }
}

/// Where one numeric `serve status` value comes from.
enum Fact {
    /// The server-wide total of these table counters.
    Total(&'static [Metric]),
    /// Sessions currently registered.
    Active,
    /// Snapshots currently parked.
    ParkedNow,
}

/// The numeric `serve status` keys, in wire order, and their sources.
/// `serve metrics` and `waferd --metrics` export the same list as
/// `serve.server.<key>` rows.
const FACTS: &[(&str, Fact)] = &[
    ("active", Fact::Active),
    ("accepted", Fact::Total(&[Metric::ServeServerAccepted])),
    (
        "shedAdmission",
        Fact::Total(&[Metric::ServeServerShedAdmission]),
    ),
    ("shedQueue", Fact::Total(&[Metric::ServeShed])),
    ("evicted", Fact::Total(&[Metric::ServeEvict])),
    ("closed", Fact::Total(&[Metric::ServeServerClosed])),
    ("commands", Fact::Total(&[Metric::ServeCommands])),
    (
        "parked",
        Fact::Total(&[
            Metric::ServeParkManual,
            Metric::ServeParkIdle,
            Metric::ServeParkDrain,
        ]),
    ),
    ("restored", Fact::Total(&[Metric::ServeRestoreOk])),
    ("restoreMiss", Fact::Total(&[Metric::ServeRestoreMiss])),
    ("parkedNow", Fact::ParkedNow),
    (
        "acceptErrors",
        Fact::Total(&[Metric::ServeServerAcceptErrors]),
    ),
];

/// One parked session's checkpoint, held by the registry until a
/// reconnect claims it (or, with a park directory, until a later
/// process claims it from disk).
#[derive(Debug, Clone)]
struct Parked {
    bytes: Vec<u8>,
    parked_ms: u64,
}

/// A session's dispatched-line count (the `serve sessions` `commands`
/// column): owned by its registry slot, bumped by the owning worker
/// with a relaxed add, never under the shard lock. Unlike the session's
/// own `serve.commands`, a `telemetry reset` does not touch it.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineCount(Arc<AtomicU64>);

impl LineCount {
    /// Counts `n` more dispatched lines.
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-session bookkeeping for the `serve sessions` listing.
#[derive(Debug, Clone)]
struct Slot {
    peer: String,
    commands: LineCount,
}

/// One registry shard: everything a single worker touches for its own
/// sessions. Slot vectors are indexed by *local* index; the global slot
/// is `local * nshards + shard`.
#[derive(Default)]
struct ShardInner {
    /// `generations[i]` is the generation the *next or current* tenant
    /// of the shard's local slot `i` carries; bumped on release.
    generations: Vec<u32>,
    slots: Vec<Option<Slot>>,
    /// Parked snapshots, keyed by the full stamped identity. The
    /// generation stamp is what makes park/reconnect race-free: a slot
    /// may be re-tenanted immediately, but `slot:generation` never
    /// recurs, so a parked id can neither collide nor be forged stale.
    parked: HashMap<(u32, u32), Parked>,
}

/// One worker's share of the registry.
struct Shard {
    inner: Mutex<ShardInner>,
    /// The shard's counter totals, counted without the lock.
    counters: Arc<Rollup>,
    /// Inbound-queue depth gauge, stored by the shard's event loop
    /// after each flush pass (the `serve status` shards breakdown).
    queued: AtomicUsize,
}

/// The shared half of the server. Cheap to clone behind an `Arc`; every
/// method takes `&self`.
pub struct Registry {
    shards: Vec<Shard>,
    /// Live session count across all shards; admission reserves with a
    /// CAS against `maxSessions`, so the limit stays exact without a
    /// global lock.
    active: AtomicUsize,
    /// Round-robin cursor spreading admissions across shards.
    next_admit: AtomicUsize,
    limits: Mutex<Limits>,
    /// Snapshot persistence directory (`waferd --park-dir`); parks are
    /// written through and restores remove the file.
    park_dir: Mutex<Option<PathBuf>>,
    draining: AtomicBool,
    /// Readiness backend surfaced in `serve status` (`poll`, `sim`;
    /// `none` before a server attaches).
    poller: Mutex<&'static str>,
    /// Per-worker wake handles, indexed by shard: the accept loop wakes
    /// a worker's poll after handing it a connection.
    wakers: Mutex<Vec<Option<Arc<dyn Wake>>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new(Limits::default())
    }
}

impl Registry {
    /// A single-shard registry enforcing the given limits — the embedded
    /// and test configuration, where slot numbers are dense.
    pub fn new(limits: Limits) -> Self {
        Registry::with_shards(limits, 1)
    }

    /// A registry with one shard per worker.
    pub fn with_shards(limits: Limits, nshards: usize) -> Self {
        let nshards = nshards.max(1);
        Registry {
            shards: (0..nshards)
                .map(|_| Shard {
                    inner: Mutex::new(ShardInner::default()),
                    counters: Arc::default(),
                    queued: AtomicUsize::new(0),
                })
                .collect(),
            active: AtomicUsize::new(0),
            next_admit: AtomicUsize::new(0),
            limits: Mutex::new(limits),
            park_dir: Mutex::new(None),
            draining: AtomicBool::new(false),
            poller: Mutex::new("none"),
            wakers: Mutex::new(Vec::new()),
        }
    }

    /// Publishes the wake handle of the worker serving `shard`.
    pub fn set_waker(&self, shard: usize, waker: Arc<dyn Wake>) {
        let mut wakers = self.wakers.lock().unwrap_or_else(|p| p.into_inner());
        if wakers.len() <= shard {
            wakers.resize_with(shard + 1, || None);
        }
        wakers[shard] = Some(waker);
    }

    /// Ends the poll wait of the worker serving `shard`, if it has
    /// published a wake handle.
    pub fn wake(&self, shard: usize) {
        let waker = self
            .wakers
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(shard)
            .cloned()
            .flatten();
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// The shard a stamped id lives on.
    pub fn shard_of(&self, id: SessionId) -> usize {
        id.slot as usize % self.shards.len()
    }

    fn shard(&self, i: usize) -> std::sync::MutexGuard<'_, ShardInner> {
        self.shards[i]
            .inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// The counter totals of `shard`, which the stores of the sessions
    /// it owns roll up into.
    pub(crate) fn shard_counters(&self, shard: usize) -> Arc<Rollup> {
        self.shards[shard].counters.clone()
    }

    /// Counts one event only the registry sees against `shard`.
    fn count(&self, shard: usize, m: Metric) {
        self.shards[shard].counters.add(m, 1);
    }

    /// The server-wide total of one table counter.
    fn total(&self, m: Metric) -> u64 {
        self.shards.iter().map(|s| s.counters.value(m)).sum()
    }

    fn shard_for_slot(&self, slot: u32) -> std::sync::MutexGuard<'_, ShardInner> {
        self.shard(slot as usize % self.shards.len())
    }

    /// Records which readiness backend the server runs on.
    pub fn set_poller_backend(&self, name: &'static str) {
        *self.poller.lock().unwrap_or_else(|p| p.into_inner()) = name;
    }

    /// The active readiness backend (`serve status` `poller` key).
    pub fn poller_backend(&self) -> &'static str {
        *self.poller.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Updates one shard's inbound-queue depth gauge (set by its event
    /// loop after each flush pass).
    pub fn set_shard_queued(&self, shard: usize, queued: usize) {
        if let Some(s) = self.shards.get(shard) {
            s.queued.store(queued, Ordering::Relaxed);
        }
    }

    /// Admission control: a slot for a new session, or the reason it
    /// was shed. The active count is reserved with a CAS first, so
    /// `maxSessions` stays exact even with shards admitting in
    /// parallel.
    pub fn admit(&self, peer: &str) -> Result<SessionId, ShedReason> {
        let cursor = self.next_admit.fetch_add(1, Ordering::Relaxed);
        let nshards = self.shards.len();
        let shed = |reason| {
            self.count(cursor % nshards, Metric::ServeServerShedAdmission);
            Err(reason)
        };
        if self.draining() {
            return shed(ShedReason::Draining);
        }
        let max = self.limits().max_sessions;
        let mut cur = self.active.load(Ordering::Relaxed);
        loop {
            if cur >= max {
                return shed(ShedReason::MaxSessions);
            }
            match self.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
        let shard_idx = cursor % nshards;
        let slot = Slot {
            peer: peer.to_string(),
            commands: LineCount::default(),
        };
        let mut shard = self.shard(shard_idx);
        let local = match shard.slots.iter().position(|s| s.is_none()) {
            Some(i) => {
                shard.slots[i] = Some(slot);
                i
            }
            None => {
                shard.slots.push(Some(slot));
                shard.generations.push(1);
                shard.slots.len() - 1
            }
        };
        self.count(shard_idx, Metric::ServeServerAccepted);
        Ok(SessionId {
            slot: (local * nshards + shard_idx) as u32,
            generation: shard.generations[local],
        })
    }

    /// Releases a session's slot. A stale id (older generation, or a
    /// slot already freed) is ignored and returns false.
    pub fn release(&self, id: SessionId) -> bool {
        let nshards = self.shards.len();
        let local = id.slot as usize / nshards;
        let mut shard = self.shard_for_slot(id.slot);
        if local >= shard.slots.len()
            || shard.generations[local] != id.generation
            || shard.slots[local].is_none()
        {
            return false;
        }
        shard.slots[local] = None;
        shard.generations[local] += 1;
        drop(shard);
        self.count(self.shard_of(id), Metric::ServeServerClosed);
        self.active.fetch_sub(1, Ordering::SeqCst);
        true
    }

    /// The `serve sessions` line count of a live session, for its
    /// worker to bump; a stale id gets a detached count nobody reads.
    pub(crate) fn line_count(&self, id: SessionId) -> LineCount {
        let local = id.slot as usize / self.shards.len();
        let shard = self.shard_for_slot(id.slot);
        match shard.slots.get(local) {
            Some(Some(slot)) if shard.generations[local] == id.generation => slot.commands.clone(),
            _ => LineCount::default(),
        }
    }

    /// Counts one accept-loop failure (`EMFILE`/`ENFILE` back-off).
    pub fn note_accept_error(&self) {
        self.count(0, Metric::ServeServerAcceptErrors);
    }

    /// Sessions currently registered.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// A copy of the current limits.
    pub fn limits(&self) -> Limits {
        self.limits
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Reads one Tcl-visible limit.
    pub fn get_limit(&self, key: &str) -> Option<String> {
        self.limits().get(key)
    }

    /// Sets one Tcl-visible limit.
    pub fn set_limit(&self, key: &str, value: &str) -> Result<(), String> {
        self.limits
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .set(key, value)
    }

    fn park_dir(&self) -> Option<PathBuf> {
        self.park_dir
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Parks a session's encoded snapshot under its stamped identity.
    /// With a park directory configured, the snapshot is also written
    /// through to `park-<slot>-<generation>.wsnap` so it survives a
    /// process restart; a write failure fails the park loudly rather
    /// than silently keeping a memory-only checkpoint.
    ///
    /// The write is crash-safe: the bytes go to a `.tmp` sibling that
    /// is fsynced and then renamed over the final name, so a crash
    /// leaves either the whole snapshot or no `.wsnap` at all (a stale
    /// `.tmp` is swept by the next [`set_park_dir`](Self::set_park_dir)).
    pub fn park(&self, id: SessionId, bytes: Vec<u8>, now_ms: u64) -> Result<(), String> {
        if let Some(dir) = self.park_dir() {
            let path = dir.join(park_file_name(id));
            write_durably(&path, &bytes)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        let mut shard = self.shard_for_slot(id.slot);
        shard.parked.insert(
            (id.slot, id.generation),
            Parked {
                bytes,
                parked_ms: now_ms,
            },
        );
        Ok(())
    }

    /// Claims a parked snapshot, removing it from the registry (and the
    /// park directory, if one is configured). `None`: the id was never
    /// parked, or was already claimed.
    pub fn take_parked(&self, id: SessionId) -> Option<Vec<u8>> {
        let p = self
            .shard_for_slot(id.slot)
            .parked
            .remove(&(id.slot, id.generation))?;
        if let Some(dir) = self.park_dir() {
            let _ = std::fs::remove_file(dir.join(park_file_name(id)));
        }
        Some(p.bytes)
    }

    /// Whether a snapshot is parked under this exact stamped identity.
    pub fn has_parked(&self, id: SessionId) -> bool {
        self.shard_for_slot(id.slot)
            .parked
            .contains_key(&(id.slot, id.generation))
    }

    /// Snapshots currently parked.
    pub fn parked_count(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shard(i).parked.len())
            .sum()
    }

    /// `session snapshots` payload: one `{id bytes parkedMs}` sublist
    /// per parked snapshot, in id order.
    pub fn parked_words(&self) -> Vec<String> {
        let mut rows: Vec<((u32, u32), usize, u64)> = Vec::new();
        for i in 0..self.shards.len() {
            let shard = self.shard(i);
            for (&key, p) in &shard.parked {
                rows.push((key, p.bytes.len(), p.parked_ms));
            }
        }
        rows.sort();
        rows.into_iter()
            .map(|((slot, generation), len, ms)| {
                wafe_tcl::list_join(&[
                    SessionId { slot, generation }.to_string(),
                    len.to_string(),
                    ms.to_string(),
                ])
            })
            .collect()
    }

    /// Whether parked snapshots are written through to disk — when
    /// true, a graceful drain parks every live session instead of
    /// dropping it, so the sessions survive the restart.
    pub fn park_persistent(&self) -> bool {
        self.park_dir().is_some()
    }

    /// Configures the park directory and loads any snapshots a previous
    /// process left there. Loading seeds each slot's generation floor
    /// past the parked generation, so new admissions can never mint an
    /// id that collides with a pre-restart parked one. Leftover `*.tmp`
    /// files — parks a crash interrupted before their rename — are
    /// deleted. A loaded snapshot is not decoded here: a damaged one is
    /// refused with `!restore-failed` when it is claimed. Returns how
    /// many snapshots were loaded.
    pub fn set_park_dir(&self, dir: PathBuf) -> Result<usize, String> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut loaded = Vec::new();
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") {
                std::fs::remove_file(entry.path())
                    .map_err(|e| format!("cannot remove {}: {e}", entry.path().display()))?;
                continue;
            }
            let Some(id) = parse_park_file_name(&name) else {
                continue;
            };
            let bytes = std::fs::read(entry.path())
                .map_err(|e| format!("cannot read {}: {e}", entry.path().display()))?;
            loaded.push((id, bytes));
        }
        let nshards = self.shards.len();
        for (id, bytes) in loaded {
            let local = id.slot as usize / nshards;
            let mut shard = self.shard_for_slot(id.slot);
            if local >= shard.slots.len() {
                shard.slots.resize(local + 1, None);
                shard.generations.resize(local + 1, 1);
            }
            shard.generations[local] = shard.generations[local].max(id.generation + 1);
            shard.parked.insert(
                (id.slot, id.generation),
                Parked {
                    bytes,
                    parked_ms: 0,
                },
            );
        }
        *self.park_dir.lock().unwrap_or_else(|p| p.into_inner()) = Some(dir);
        Ok(self.parked_count())
    }

    /// Whether a drain is in progress.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Starts the graceful drain: acceptors stop admitting, schedulers
    /// close every session's input, flush what is queued and release
    /// every session.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// The numeric `serve status` facts, in [`FACTS`] order.
    fn facts(&self) -> Vec<(&'static str, u64)> {
        FACTS
            .iter()
            .map(|(key, fact)| {
                let v = match fact {
                    Fact::Total(ms) => ms.iter().map(|&m| self.total(m)).sum(),
                    Fact::Active => self.active() as u64,
                    Fact::ParkedNow => self.parked_count() as u64,
                };
                (*key, v)
            })
            .collect()
    }

    /// `serve status` payload: a flat key/value word list. `state`
    /// first, then `FACTS` (their positions are part of the wire
    /// contract), then the `poller` and the per-shard `shards`
    /// breakdown.
    pub fn status_words(&self) -> Vec<String> {
        let state = if self.draining() {
            "draining"
        } else {
            "serving"
        };
        let mut words = vec!["state".to_string(), state.to_string()];
        for (key, v) in self.facts() {
            words.push(key.to_string());
            words.push(v.to_string());
        }
        let shard_rows: Vec<String> = (0..self.shards.len())
            .map(|i| {
                let active = self.shard(i).slots.iter().filter(|s| s.is_some()).count();
                let queued = self.shards[i].queued.load(Ordering::Relaxed);
                format!("shard {i} active {active} queued {queued}")
            })
            .collect();
        words.extend([
            "poller".to_string(),
            self.poller_backend().to_string(),
            "shards".to_string(),
            wafe_tcl::list_join(&shard_rows),
        ]);
        words
    }

    /// The server-level rows of the metrics exposition (`serve metrics`
    /// and waferd's `--metrics` endpoint): the `FACTS` as key-sorted
    /// `serve.server.*` pairs, plus the 0/1 `draining` flag standing in
    /// for the `state` word.
    pub fn metrics_pairs(&self) -> Vec<(String, String)> {
        let mut pairs: Vec<(String, String)> = self
            .facts()
            .into_iter()
            .chain([("draining", self.draining() as u64)])
            .map(|(k, v)| (format!("serve.server.{k}"), v.to_string()))
            .collect();
        pairs.sort();
        pairs
    }

    /// The server-wide totals of every counter the session stores roll
    /// up, by table name, nonzero only. The registry's own
    /// `serve.server.*` counters are left out: [`metrics_pairs`] already
    /// exports them.
    ///
    /// [`metrics_pairs`]: Registry::metrics_pairs
    pub fn rollup_pairs(&self) -> Vec<(String, String)> {
        Metric::ALL
            .iter()
            .filter(|m| m.kind() == Kind::Counter && !m.name().starts_with("serve.server."))
            .filter_map(|&m| match self.total(m) {
                0 => None,
                v => Some((m.name().to_string(), v.to_string())),
            })
            .collect()
    }

    /// `serve sessions` payload: one `{id peer commands}`
    /// sublist per live session, in slot order.
    pub fn sessions_words(&self) -> Vec<String> {
        let nshards = self.shards.len();
        let mut rows: Vec<(u32, String)> = Vec::new();
        for i in 0..nshards {
            let shard = self.shard(i);
            for (local, s) in shard.slots.iter().enumerate() {
                let Some(s) = s.as_ref() else { continue };
                let id = SessionId {
                    slot: (local * nshards + i) as u32,
                    generation: shard.generations[local],
                };
                rows.push((
                    id.slot,
                    wafe_tcl::list_join(&[
                        id.to_string(),
                        s.peer.clone(),
                        s.commands.get().to_string(),
                    ]),
                ));
            }
        }
        rows.sort();
        rows.into_iter().map(|(_, w)| w).collect()
    }
}

/// `park-<slot>-<generation>.wsnap`, the on-disk name of one parked
/// snapshot.
fn park_file_name(id: SessionId) -> String {
    format!("park-{}-{}.wsnap", id.slot, id.generation)
}

/// Writes `bytes` to `path` through a fsynced `<path>.tmp` and a
/// rename, then fsyncs the directory so the rename itself is durable.
fn write_durably(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

fn parse_park_file_name(name: &str) -> Option<SessionId> {
    let rest = name.strip_prefix("park-")?.strip_suffix(".wsnap")?;
    let (slot, generation) = rest.split_once('-')?;
    Some(SessionId {
        slot: slot.parse().ok()?,
        generation: generation.parse().ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One numeric `serve status` value.
    fn status(r: &Registry, key: &str) -> u64 {
        let words = r.status_words();
        let i = words.iter().position(|w| w == key).expect("status key");
        words[i + 1].parse().expect("numeric")
    }

    #[test]
    fn generations_never_reuse() {
        let r = Registry::new(Limits::default());
        let a = r.admit("one").unwrap();
        assert_eq!((a.slot, a.generation), (0, 1));
        assert!(r.release(a));
        let b = r.admit("two").unwrap();
        assert_eq!(b.slot, a.slot, "slot is reused");
        assert_eq!(b.generation, 2, "generation is not");
        assert!(!r.release(a), "stale release is ignored");
        assert_eq!(r.active(), 1);
    }

    #[test]
    fn admission_sheds_at_max_and_while_draining() {
        let r = Registry::new(Limits {
            max_sessions: 2,
            ..Limits::default()
        });
        r.admit("a").unwrap();
        let b = r.admit("b").unwrap();
        assert_eq!(r.admit("c"), Err(ShedReason::MaxSessions));
        r.release(b);
        r.admit("c").unwrap();
        r.begin_drain();
        assert_eq!(r.admit("d"), Err(ShedReason::Draining));
        assert_eq!(status(&r, "shedAdmission"), 2);
    }

    #[test]
    fn limits_roundtrip_through_tcl_keys() {
        let r = Registry::default();
        for key in LIMIT_KEYS {
            assert!(r.get_limit(key).is_some(), "{key} must be readable");
        }
        r.set_limit("maxSessions", "3").unwrap();
        assert_eq!(r.limits().max_sessions, 3);
        r.set_limit("quantum", "0").unwrap();
        assert_eq!(r.limits().quantum, 1, "quantum floor keeps progress");
        assert!(r.set_limit("nosuchknob", "1").is_err());
        assert!(r.set_limit("quantum", "fast").is_err());
    }

    #[test]
    fn parked_snapshots_are_claimed_exactly_once() {
        let r = Registry::default();
        let id = r.admit("one").unwrap();
        r.park(id, vec![1, 2, 3], 7).unwrap();
        assert!(r.has_parked(id));
        assert_eq!(r.parked_words(), vec!["0:1 3 7".to_string()]);
        r.release(id);
        let reused = r.admit("two").unwrap();
        assert_eq!(reused.slot, id.slot);
        assert!(
            !r.has_parked(reused),
            "new tenant's stamped id must not see the old tenant's snapshot"
        );
        assert_eq!(r.take_parked(id), Some(vec![1, 2, 3]));
        assert_eq!(r.take_parked(id), None, "second claim is a miss");
    }

    #[test]
    fn park_dir_persists_and_seeds_generation_floors() {
        let dir = std::env::temp_dir().join(format!("wafe-park-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let r = Registry::default();
        r.set_park_dir(dir.clone()).unwrap();
        let id = r.admit("one").unwrap();
        r.park(id, b"snapshot-bytes".to_vec(), 0).unwrap();
        r.release(id);
        assert!(dir.join("park-0-1.wsnap").exists());
        assert!(!dir.join("park-0-1.wsnap.tmp").exists(), "tmp renamed away");

        // A fresh registry (a restarted waferd) finds the snapshot and
        // will never mint 0:1 again.
        let r2 = Registry::default();
        assert_eq!(r2.set_park_dir(dir.clone()).unwrap(), 1);
        let fresh = r2.admit("two").unwrap();
        assert_eq!((fresh.slot, fresh.generation), (0, 2));
        assert_eq!(r2.take_parked(id), Some(b"snapshot-bytes".to_vec()));
        assert!(
            !dir.join("park-0-1.wsnap").exists(),
            "claim removes the file"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_words_are_a_flat_even_list() {
        let r = Registry::default();
        let words = r.status_words();
        assert!(words.len().is_multiple_of(2));
        assert_eq!(words[0], "state");
        assert_eq!(words[1], "serving");
        r.begin_drain();
        assert_eq!(r.status_words()[1], "draining");
    }

    #[test]
    fn sharded_slots_interleave_and_route_by_modulo() {
        let r = Registry::with_shards(Limits::default(), 4);
        let ids: Vec<SessionId> = (0..6).map(|i| r.admit(&format!("c{i}")).unwrap()).collect();
        // Round-robin admission: global slots 0,1,2,3 then 4,5 (the
        // second lap of shards 0 and 1).
        assert_eq!(
            ids.iter().map(|id| id.slot).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        for id in &ids {
            assert_eq!(r.shard_of(*id), id.slot as usize % 4);
        }
        assert_eq!(r.active(), 6);
        // Releasing a shard-2 session frees exactly that slot for the
        // next shard-2 lap.
        assert!(r.release(ids[2]));
        assert_eq!(r.active(), 5);
        // sessions_words stays globally slot-ordered across shards.
        let words = r.sessions_words();
        assert_eq!(words.len(), 5);
        assert!(words[0].starts_with("0:1 "));
        assert!(words.iter().all(|w| !w.starts_with("2:")));
    }

    #[test]
    fn sharded_max_sessions_is_exact() {
        let r = Registry::with_shards(
            Limits {
                max_sessions: 5,
                ..Limits::default()
            },
            4,
        );
        let ids: Vec<_> = (0..5).map(|i| r.admit(&format!("c{i}")).unwrap()).collect();
        assert_eq!(r.admit("over"), Err(ShedReason::MaxSessions));
        assert_eq!(r.active(), 5);
        r.release(ids[0]);
        assert!(r.admit("fits").is_ok());
        assert_eq!(status(&r, "accepted"), 6);
        assert_eq!(status(&r, "shedAdmission"), 1);
        assert_eq!(status(&r, "closed"), 1);
    }

    #[test]
    fn status_reports_poller_and_shard_breakdown() {
        let r = Registry::with_shards(Limits::default(), 2);
        r.set_poller_backend("sim");
        r.admit("a").unwrap();
        r.set_shard_queued(1, 9);
        let words = r.status_words();
        let find = |key: &str| {
            words
                .iter()
                .position(|w| w == key)
                .map(|i| words[i + 1].clone())
                .unwrap()
        };
        assert_eq!(find("poller"), "sim");
        assert_eq!(find("acceptErrors"), "0");
        assert_eq!(
            find("shards"),
            "{shard 0 active 1 queued 0} {shard 1 active 0 queued 9}"
        );
        r.note_accept_error();
        assert_eq!(
            r.metrics_pairs()
                .iter()
                .find(|(k, _)| k == "serve.server.acceptErrors")
                .unwrap()
                .1,
            "1"
        );
        // Shard totals sum into the view, and the roll-up rows leave
        // the registry's own counters to `metrics_pairs`.
        r.shard_counters(0).add(Metric::ServeCommands, 2);
        r.shard_counters(1).add(Metric::ServeCommands, 3);
        assert_eq!(status(&r, "commands"), 5);
        let rolled = r.rollup_pairs();
        assert!(rolled.contains(&("serve.commands".to_string(), "5".to_string())));
        assert!(rolled.iter().all(|(k, _)| !k.starts_with("serve.server.")));
    }
}
