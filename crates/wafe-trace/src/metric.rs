//! The metric table: every counter, gauge, histogram and live read in the
//! stack, declared once. Each line maps a [`Metric`] id to its dotted
//! name and [`Kind`]; the id is the dense index of the metric's slot in a
//! [`crate::Telemetry`] store, so recording is an array increment, not a
//! name lookup. Names appear nowhere else in the source: code records and
//! reads by id, and exporters print [`Metric::name`].

/// What a metric records, and so how the store treats it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic; always recorded, zeroed by `reset`.
    Counter,
    /// Last write wins; always recorded, zeroed by `reset`.
    Gauge,
    /// Latency (or size) samples; recorded only while enabled.
    Histogram,
    /// State its owner reads at snapshot time (a cache size, a memory
    /// total, journal occupancy); the store keeps no value for it.
    Live,
}

macro_rules! metrics {
    ($($id:ident = $name:literal $kind:ident,)*) => {
        /// A metric's table id (see the [module docs](self)).
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[allow(missing_docs)]
        pub enum Metric { $($id,)* }

        /// Number of metrics in the table (slots per store).
        pub const METRIC_COUNT: usize = Metric::ALL.len();

        impl Metric {
            /// Every metric, in table order.
            pub const ALL: &'static [Metric] = &[$(Metric::$id,)*];

            /// The dotted name snapshots and exporters print.
            pub const fn name(self) -> &'static str {
                match self { $(Metric::$id => $name,)* }
            }

            /// How the store records this metric.
            pub const fn kind(self) -> Kind {
                match self { $(Metric::$id => Kind::$kind,)* }
            }
        }
    };
}

metrics! {
    // Tcl interpreter. `tcl.evals`/`tcl.dispatches` count the samples of
    // their histograms, so they too record only while enabled.
    TclEvals = "tcl.evals" Counter,
    TclEval = "tcl.eval" Histogram,
    TclDispatches = "tcl.dispatches" Counter,
    TclDispatch = "tcl.dispatch" Histogram,
    TclBcCompiles = "tcl.bc.compiles" Counter,
    TclBcHits = "tcl.bc.hits" Counter,
    TclBcFallbacks = "tcl.bc.fallbacks" Counter,
    TclBcDeferred = "tcl.bc.deferred" Counter,
    TclBcInstructions = "tcl.bc.instructions" Counter,
    TclCacheScriptHits = "tcl.cache.scriptHits" Counter,
    TclCacheScriptMisses = "tcl.cache.scriptMisses" Counter,
    TclCacheScriptEntries = "tcl.cache.scriptEntries" Live,
    TclCacheScriptEvictions = "tcl.cache.scriptEvictions" Counter,
    TclCacheExprHits = "tcl.cache.exprHits" Counter,
    TclCacheExprMisses = "tcl.cache.exprMisses" Counter,
    TclCacheExprEntries = "tcl.cache.exprEntries" Live,
    TclCacheExprEvictions = "tcl.cache.exprEvictions" Counter,
    TclCacheSubstHits = "tcl.cache.substHits" Counter,
    TclCacheSubstMisses = "tcl.cache.substMisses" Counter,
    TclCacheSubstEntries = "tcl.cache.substEntries" Live,
    TclCacheSubstEvictions = "tcl.cache.substEvictions" Counter,
    TclCacheLimit = "tcl.cache.limit" Live,
    TclShimmerIntParses = "tcl.shimmer.intParses" Counter,
    TclShimmerDoubleParses = "tcl.shimmer.doubleParses" Counter,
    TclShimmerListParses = "tcl.shimmer.listParses" Counter,
    TclShimmerRepHits = "tcl.shimmer.repHits" Counter,
    TclShimmerRenders = "tcl.shimmer.renders" Counter,
    TclShimmerListCow = "tcl.shimmer.listCow" Counter,
    TclShimmerCmdInternHits = "tcl.shimmer.cmdInternHits" Counter,
    // Xt Intrinsics and the Xt→Tcl dispatch seam.
    XtWidgetCreates = "xt.widget.creates" Counter,
    XtWidgetDestroys = "xt.widget.destroys" Counter,
    XtSettleLaidOut = "xt.settle.laid_out" Counter,
    XtSettleConfigured = "xt.settle.configured" Counter,
    XtSettleRedrawn = "xt.settle.redrawn" Counter,
    XtHostcallsQueued = "xt.hostcalls.queued" Counter,
    XtEventsDispatched = "xt.events.dispatched" Counter,
    XtActionsDispatched = "xt.actions.dispatched" Counter,
    XtActionDispatch = "xt.action.dispatch" Histogram,
    XtCallbacksDispatched = "xt.callbacks.dispatched" Counter,
    XtCallbackDispatch = "xt.callback.dispatch" Histogram,
    XtMemCurrent = "xt.mem.current" Live,
    XtMemPeak = "xt.mem.peak" Live,
    XtMemAllocs = "xt.mem.allocs" Live,
    XtMemFrees = "xt.mem.frees" Live,
    XtMemOverfree = "xt.mem.overfree" Live,
    // The pipe protocol and the backend supervisor.
    IpcLinesReceived = "ipc.lines.received" Counter,
    IpcBytesReceived = "ipc.bytes.received" Counter,
    IpcLinesInterpreted = "ipc.lines.interpreted" Counter,
    IpcLinesPassthrough = "ipc.lines.passthrough" Counter,
    IpcLinesSent = "ipc.lines.sent" Counter,
    IpcBytesSent = "ipc.bytes.sent" Counter,
    IpcErrors = "ipc.errors" Counter,
    IpcMassBytes = "ipc.mass.bytes" Counter,
    IpcMassTransfers = "ipc.mass.transfers" Counter,
    IpcRoundtrip = "ipc.roundtrip" Histogram,
    IpcSupervisorRestarts = "ipc.supervisor.restarts" Counter,
    IpcSupervisorTimeoutsRead = "ipc.supervisor.timeouts.read" Counter,
    IpcSupervisorTimeoutsRoundtrip = "ipc.supervisor.timeouts.roundtrip" Counter,
    IpcSupervisorQueueDropped = "ipc.supervisor.queue.dropped" Counter,
    IpcSupervisorQueueFlushed = "ipc.supervisor.queue.flushed" Counter,
    IpcSupervisorQueueDepth = "ipc.supervisor.queue.depth" Gauge,
    IpcSupervisorFloodTrips = "ipc.supervisor.flood.trips" Counter,
    IpcSupervisorBreakerTrips = "ipc.supervisor.breaker.trips" Counter,
    IpcSupervisorFaultsInjected = "ipc.supervisor.faults.injected" Counter,
    IpcSupervisorExits = "ipc.supervisor.exits" Counter,
    IpcSupervisorSpawnFailures = "ipc.supervisor.spawn.failures" Counter,
    IpcSupervisorWriteErrors = "ipc.supervisor.write.errors" Counter,
    // The multi-session server, per session.
    ServeAccept = "serve.accept" Counter,
    ServeSessionsActive = "serve.sessions.active" Gauge,
    ServeCommands = "serve.commands" Counter,
    ServeDispatch = "serve.dispatch" Histogram,
    ServeShed = "serve.shed" Counter,
    ServeQueueDepth = "serve.queue.depth" Gauge,
    ServeEvict = "serve.evict" Counter,
    ServeParkManual = "serve.park.manual" Counter,
    ServeParkIdle = "serve.park.idle" Counter,
    ServeParkDrain = "serve.park.drain" Counter,
    ServeParkBytes = "serve.park.bytes" Counter,
    ServeParkError = "serve.park.error" Counter,
    ServeRestore = "serve.restore" Histogram,
    ServeRestoreOk = "serve.restore.ok" Counter,
    ServeRestoreMiss = "serve.restore.miss" Counter,
    ServeRestoreError = "serve.restore.error" Counter,
    ServeRestoreWidgets = "serve.restore.widgets" Counter,
    ServeRestoreWidgetsSkipped = "serve.restore.widgetsSkipped" Counter,
    // The multi-session server, counted by the registry: events no
    // session store sees (a refused connection never gets one).
    ServeServerAccepted = "serve.server.accepted" Counter,
    ServeServerShedAdmission = "serve.server.shedAdmission" Counter,
    ServeServerClosed = "serve.server.closed" Counter,
    ServeServerAcceptErrors = "serve.server.acceptErrors" Counter,
    // The remote display channel.
    DisplayAttach = "display.attach" Counter,
    DisplayDetach = "display.detach" Counter,
    DisplayResync = "display.resync" Counter,
    DisplayEvent = "display.event" Counter,
    DisplayEventRejected = "display.event.rejected" Counter,
    DisplayFrame = "display.frame" Counter,
    DisplayFrameDeferred = "display.frame.deferred" Counter,
    DisplayFrameFull = "display.frame.full" Counter,
    DisplayFrameRects = "display.frame.rects" Counter,
    DisplayFrameBytes = "display.frame.bytes" Histogram,
    DisplayFaultDrop = "display.fault.drop" Counter,
    DisplayFaultGarble = "display.fault.garble" Counter,
    DisplayFaultTruncate = "display.fault.truncate" Counter,
    // The store's own journal and span rings.
    TraceJournalRetained = "trace.journal.retained" Live,
    TraceJournalTotal = "trace.journal.total" Live,
    TraceJournalDropped = "trace.journal.dropped" Live,
    TraceJournalCapacity = "trace.journal.capacity" Live,
    TraceSpansRetained = "trace.spans.retained" Live,
    TraceSpansTotal = "trace.spans.total" Live,
    TraceSpansDropped = "trace.spans.dropped" Live,
    TraceSpansCapacity = "trace.spans.capacity" Live,
}

impl Metric {
    /// The metric with this dotted name, if the table has one.
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL.iter().copied().find(|m| m.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_round_trip() {
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "ids are dense, in table order");
            assert_eq!(Metric::from_name(m.name()), Some(*m), "{}", m.name());
        }
        assert_eq!(Metric::from_name("no.such"), None);
    }
}
