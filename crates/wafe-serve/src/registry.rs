//! The session registry: generation-stamped identities, admission
//! control and the server-wide counters behind `serve status`.
//!
//! The registry is the state shared between the accept loop, the worker
//! event loops and the `serve` Tcl command. To keep that sharing off
//! the hot path it is *sharded*: slots, per-slot bookkeeping, parked
//! snapshots and the event counters live in one [`Mutex`]-guarded shard
//! per worker, and a session's stamped id pins it to its shard for life
//! (`shard = slot % nshards`). Workers therefore never contend on each
//! other's locks — only `serve status` / `serve metrics` walk all
//! shards, aggregating at read time. The only cross-shard state is a
//! pair of atomics (the active count backing exact `maxSessions`
//! admission and the draining flag) plus rarely-touched configuration
//! (limits, park directory).

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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
    /// Lines a session's mailbox holds before `!shed queue-full`
    /// (applies to mailboxes created after a change).
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

/// Server-wide event totals (`serve status`). Kept per shard and summed
/// at read time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Sessions admitted.
    pub accepted: u64,
    /// Connections refused at admission (max-sessions or draining).
    pub shed_admission: u64,
    /// Inbound lines refused because a session's mailbox was full.
    pub shed_queue: u64,
    /// Sessions evicted for idling past `idleEvict`.
    pub evicted: u64,
    /// Sessions released (any cause: disconnect, quit, evict, drain).
    pub closed: u64,
    /// Protocol lines dispatched across all sessions.
    pub commands: u64,
    /// Sessions parked (idle eviction, drain park-all, `session park`).
    pub parked: u64,
    /// Parked snapshots restored into a reconnecting session.
    pub restored: u64,
    /// Restore attempts naming an unknown or already-taken snapshot.
    pub restore_miss: u64,
    /// `accept(2)` failures (fd exhaustion etc.) the accept loop backed
    /// off from instead of spinning on.
    pub accept_errors: u64,
}

impl ServerStats {
    fn add(&mut self, o: &ServerStats) {
        self.accepted += o.accepted;
        self.shed_admission += o.shed_admission;
        self.shed_queue += o.shed_queue;
        self.evicted += o.evicted;
        self.closed += o.closed;
        self.commands += o.commands;
        self.parked += o.parked;
        self.restored += o.restored;
        self.restore_miss += o.restore_miss;
        self.accept_errors += o.accept_errors;
    }
}

/// One parked session's checkpoint, held by the registry until a
/// reconnect claims it (or, with a park directory, until a later
/// process claims it from disk).
#[derive(Debug, Clone)]
struct Parked {
    bytes: Vec<u8>,
    parked_ms: u64,
}

/// Per-session bookkeeping for the `serve sessions` listing.
#[derive(Debug, Clone)]
struct Slot {
    peer: String,
    admitted_ms: u64,
    commands: u64,
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
    stats: ServerStats,
    /// Parked snapshots, keyed by the full stamped identity. The
    /// generation stamp is what makes park/reconnect race-free: a slot
    /// may be re-tenanted immediately, but `slot:generation` never
    /// recurs, so a parked id can neither collide nor be forged stale.
    parked: HashMap<(u32, u32), Parked>,
    /// Mailbox-depth gauge, updated by the shard's event loop after
    /// each sweep (the `serve status` shards breakdown).
    queued: usize,
}

/// The shared half of the server. Cheap to clone behind an `Arc`; every
/// method takes `&self`.
pub struct Registry {
    shards: Vec<Mutex<ShardInner>>,
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
    /// Readiness backend surfaced in `serve status` (`poll`, `sim`,
    /// `threads`; `none` before a server attaches).
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
                .map(|_| Mutex::new(ShardInner::default()))
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

    /// How many shards (== workers) the registry was built for.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a stamped id lives on.
    pub fn shard_of(&self, id: SessionId) -> usize {
        id.slot as usize % self.shards.len()
    }

    fn shard(&self, i: usize) -> std::sync::MutexGuard<'_, ShardInner> {
        self.shards[i].lock().unwrap_or_else(|p| p.into_inner())
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

    /// Updates one shard's mailbox-depth gauge (set by its event loop
    /// after each sweep).
    pub fn set_shard_queued(&self, shard: usize, queued: usize) {
        if shard < self.shards.len() {
            self.shard(shard).queued = queued;
        }
    }

    /// Admission control: a slot for a new session, or the reason it
    /// was shed. The active count is reserved with a CAS first, so
    /// `maxSessions` stays exact even with shards admitting in
    /// parallel.
    pub fn admit(&self, peer: &str, now_ms: u64) -> Result<SessionId, ShedReason> {
        let cursor = self.next_admit.fetch_add(1, Ordering::Relaxed);
        let nshards = self.shards.len();
        if self.draining() {
            self.shard(cursor % nshards).stats.shed_admission += 1;
            return Err(ShedReason::Draining);
        }
        let max = self.limits().max_sessions;
        let mut cur = self.active.load(Ordering::Relaxed);
        loop {
            if cur >= max {
                self.shard(cursor % nshards).stats.shed_admission += 1;
                return Err(ShedReason::MaxSessions);
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
            admitted_ms: now_ms,
            commands: 0,
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
        shard.stats.accepted += 1;
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
        shard.stats.closed += 1;
        drop(shard);
        self.active.fetch_sub(1, Ordering::SeqCst);
        true
    }

    /// Adds dispatched-line counts to a session and its shard's total.
    pub fn note_commands(&self, id: SessionId, n: u64) {
        let nshards = self.shards.len();
        let local = id.slot as usize / nshards;
        let mut shard = self.shard_for_slot(id.slot);
        shard.stats.commands += n;
        if local < shard.slots.len() && shard.generations[local] == id.generation {
            if let Some(slot) = shard.slots[local].as_mut() {
                slot.commands += n;
            }
        }
    }

    /// Counts one queue-full shed against the session's shard (the
    /// transport replies `!shed queue-full` to the client).
    pub fn note_shed_queue(&self, id: SessionId) {
        self.shard_for_slot(id.slot).stats.shed_queue += 1;
    }

    /// Counts one idle eviction against the session's shard.
    pub fn note_evicted(&self, id: SessionId) {
        self.shard_for_slot(id.slot).stats.evicted += 1;
    }

    /// Counts one accept-loop failure (`EMFILE`/`ENFILE` back-off).
    pub fn note_accept_error(&self) {
        self.shard(0).stats.accept_errors += 1;
    }

    /// Counts a restore attempt that named an unknown snapshot (the
    /// in-band `session restore` validation path; [`take_parked`]
    /// counts its own misses).
    ///
    /// [`take_parked`]: Registry::take_parked
    pub fn note_restore_miss(&self) {
        self.shard(0).stats.restore_miss += 1;
    }

    /// Sessions currently registered.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// The server-wide totals, summed across shards.
    pub fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for i in 0..self.shards.len() {
            total.add(&self.shard(i).stats);
        }
        total
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
    pub fn park(&self, id: SessionId, bytes: Vec<u8>, now_ms: u64) -> Result<(), String> {
        if let Some(dir) = self.park_dir() {
            let path = dir.join(park_file_name(id));
            std::fs::write(&path, &bytes)
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
        shard.stats.parked += 1;
        Ok(())
    }

    /// Claims a parked snapshot, removing it from the registry (and the
    /// park directory, if one is configured). `None` counts a restore
    /// miss: the id was never parked, or was already claimed.
    pub fn take_parked(&self, id: SessionId) -> Option<Vec<u8>> {
        let mut shard = self.shard_for_slot(id.slot);
        match shard.parked.remove(&(id.slot, id.generation)) {
            Some(p) => {
                shard.stats.restored += 1;
                drop(shard);
                if let Some(dir) = self.park_dir() {
                    let _ = std::fs::remove_file(dir.join(park_file_name(id)));
                }
                Some(p.bytes)
            }
            None => {
                shard.stats.restore_miss += 1;
                None
            }
        }
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
    /// id that collides with a pre-restart parked one. Returns how many
    /// snapshots were loaded.
    pub fn set_park_dir(&self, dir: PathBuf) -> Result<usize, String> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut loaded = Vec::new();
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
            let name = entry.file_name();
            let Some(id) = parse_park_file_name(&name.to_string_lossy()) else {
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
    /// flush their mailboxes and release every session.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// `serve status` payload: a flat key/value word list. The original
    /// aggregate keys come first (their positions are part of the wire
    /// contract); the shard-era keys — `acceptErrors`, `poller` and the
    /// per-shard `shards` breakdown — are appended at the end.
    pub fn status_words(&self) -> Vec<String> {
        let draining = self.draining();
        let s = self.stats();
        let mut shard_rows = Vec::new();
        for i in 0..self.shards.len() {
            let shard = self.shard(i);
            let active = shard.slots.iter().filter(|s| s.is_some()).count();
            shard_rows.push(wafe_tcl::list_join(&[
                "shard".to_string(),
                i.to_string(),
                "active".to_string(),
                active.to_string(),
                "queued".to_string(),
                shard.queued.to_string(),
            ]));
        }
        [
            (
                "state",
                if draining { "draining" } else { "serving" }.into(),
            ),
            ("active", self.active().to_string()),
            ("accepted", s.accepted.to_string()),
            ("shedAdmission", s.shed_admission.to_string()),
            ("shedQueue", s.shed_queue.to_string()),
            ("evicted", s.evicted.to_string()),
            ("closed", s.closed.to_string()),
            ("commands", s.commands.to_string()),
            ("parked", s.parked.to_string()),
            ("restored", s.restored.to_string()),
            ("restoreMiss", s.restore_miss.to_string()),
            ("parkedNow", self.parked_count().to_string()),
            ("acceptErrors", s.accept_errors.to_string()),
            ("poller", self.poller_backend().to_string()),
            ("shards", wafe_tcl::list_join(&shard_rows)),
        ]
        .into_iter()
        .flat_map(|(k, v): (&str, String)| [k.to_string(), v])
        .collect()
    }

    /// The server-level rows of the metrics exposition (`serve metrics`
    /// and waferd's `--metrics` endpoint): the `serve status` facts as
    /// key-sorted numeric pairs under `serve.server.*` (the non-numeric
    /// `state` word becomes the 0/1 `draining` flag).
    pub fn metrics_pairs(&self) -> Vec<(String, String)> {
        let draining = self.draining();
        let s = self.stats();
        let mut pairs: Vec<(String, String)> = [
            ("draining", draining as u64),
            ("active", self.active() as u64),
            ("accepted", s.accepted),
            ("shedAdmission", s.shed_admission),
            ("shedQueue", s.shed_queue),
            ("evicted", s.evicted),
            ("closed", s.closed),
            ("commands", s.commands),
            ("parked", s.parked),
            ("restored", s.restored),
            ("restoreMiss", s.restore_miss),
            ("parkedNow", self.parked_count() as u64),
            ("acceptErrors", s.accept_errors),
        ]
        .into_iter()
        .map(|(k, v)| (format!("serve.server.{k}"), v.to_string()))
        .collect();
        pairs.sort();
        pairs
    }

    /// `serve sessions` payload: one `{id peer admittedMs commands}`
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
                        s.admitted_ms.to_string(),
                        s.commands.to_string(),
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

    #[test]
    fn generations_never_reuse() {
        let r = Registry::new(Limits::default());
        let a = r.admit("one", 0).unwrap();
        assert_eq!((a.slot, a.generation), (0, 1));
        assert!(r.release(a));
        let b = r.admit("two", 0).unwrap();
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
        r.admit("a", 0).unwrap();
        let b = r.admit("b", 0).unwrap();
        assert_eq!(r.admit("c", 0), Err(ShedReason::MaxSessions));
        r.release(b);
        r.admit("c", 0).unwrap();
        r.begin_drain();
        assert_eq!(r.admit("d", 0), Err(ShedReason::Draining));
        assert_eq!(r.stats().shed_admission, 2);
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
        let id = r.admit("one", 0).unwrap();
        r.park(id, vec![1, 2, 3], 7).unwrap();
        assert!(r.has_parked(id));
        assert_eq!(r.parked_words(), vec!["0:1 3 7".to_string()]);
        r.release(id);
        let reused = r.admit("two", 0).unwrap();
        assert_eq!(reused.slot, id.slot);
        assert!(
            !r.has_parked(reused),
            "new tenant's stamped id must not see the old tenant's snapshot"
        );
        assert_eq!(r.take_parked(id), Some(vec![1, 2, 3]));
        assert_eq!(r.take_parked(id), None, "second claim is a miss");
        let s = r.stats();
        assert_eq!((s.parked, s.restored, s.restore_miss), (1, 1, 1));
    }

    #[test]
    fn park_dir_persists_and_seeds_generation_floors() {
        let dir = std::env::temp_dir().join(format!("wafe-park-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let r = Registry::default();
        r.set_park_dir(dir.clone()).unwrap();
        let id = r.admit("one", 0).unwrap();
        r.park(id, b"snapshot-bytes".to_vec(), 0).unwrap();
        r.release(id);
        assert!(dir.join("park-0-1.wsnap").exists());

        // A fresh registry (a restarted waferd) finds the snapshot and
        // will never mint 0:1 again.
        let r2 = Registry::default();
        assert_eq!(r2.set_park_dir(dir.clone()).unwrap(), 1);
        let fresh = r2.admit("two", 0).unwrap();
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
        let ids: Vec<SessionId> = (0..6)
            .map(|i| r.admit(&format!("c{i}"), 0).unwrap())
            .collect();
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
        let ids: Vec<_> = (0..5)
            .map(|i| r.admit(&format!("c{i}"), 0).unwrap())
            .collect();
        assert_eq!(r.admit("over", 0), Err(ShedReason::MaxSessions));
        assert_eq!(r.active(), 5);
        r.release(ids[0]);
        assert!(r.admit("fits", 0).is_ok());
        assert_eq!(r.stats().accepted, 6);
        assert_eq!(r.stats().shed_admission, 1);
    }

    #[test]
    fn status_reports_poller_and_shard_breakdown() {
        let r = Registry::with_shards(Limits::default(), 2);
        r.set_poller_backend("sim");
        r.admit("a", 0).unwrap();
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
    }
}
