//! The query service: SQL in, results out, across many concurrent
//! sessions, with cross-query learning reuse.
//!
//! One [`QueryService`] owns the catalog, the UDF registry, the shared
//! [`CoreBudget`] and the template-keyed [`LearningCache`]. Sessions
//! ([`Session`]) are cheap clonable handles; any number of threads may
//! execute queries concurrently — admission is FIFO-fair over the core
//! budget, so `SkinnerCConfig.threads` bounds the *total* worker count
//! across concurrent queries and their parallel filter scans alike.

use crate::budget::{AdmissionError, CoreBudget};
use crate::cache::{CacheStats, LearningCache, TableDeps};
use skinner_core::{postprocess, project_tuple, MinMaxFold, QueryResult, RunStats};
use skinner_engine::multiway::ResultSet;
use skinner_engine::{
    Collector, KernelCache, KernelCacheStats, RunOptions, SkinnerC, SkinnerCConfig, SkinnerOutcome,
    StopReason, WorkerPool,
};
use skinner_knowledge::{observe, KnowledgeConfig, KnowledgeStats, KnowledgeStore};
use skinner_query::{parse, Query, QueryError, TableId, TemplateKey, UdfRegistry};
use skinner_storage::table::TableRef;
use skinner_storage::{Catalog, FxHashMap, Table, Value};
use skinner_uct::TreeSnapshot;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceConfig {
    /// Base Skinner-C configuration. `engine.threads` is the service's
    /// *total* core budget: an idle service hands it all to one query
    /// (its pre-processing fan-out); under load it is split across
    /// concurrent queries (see [`CoreBudget`]).
    pub engine: SkinnerCConfig,
    /// Default per-query timeout (covers queueing and execution);
    /// `None` = unlimited. Individual executions may override it.
    pub default_timeout: Option<Duration>,
    /// Default per-query cap on result-materialization bytes (the
    /// engine's flat tuple arena + dedup table), `None` = unbounded.
    /// Exceeding it degrades gracefully: a LIMIT-pushdown query keeps
    /// its streamed prefix (flagged via `RunStats::stop`), any other
    /// query fails with [`ServiceError::MemoryExceeded`] instead of
    /// growing until the OS kills the process. Individual executions
    /// may override it ([`ExecuteOptions::max_result_bytes`]). A global
    /// MIN/MAX folds its tuples instead of storing them
    /// ([`Query::folds_into_min_max`]), holds no arena and never trips
    /// the budget.
    pub max_result_bytes: Option<usize>,
}

/// Errors surfaced to service clients.
#[derive(Debug)]
pub enum ServiceError {
    /// SQL failed to parse or validate.
    Parse(QueryError),
    /// The execution's [`CancelToken`] was raised.
    Cancelled,
    /// The per-query timeout elapsed (queueing included).
    TimedOut,
    /// The result-materialization byte budget was exceeded and the
    /// query shape offers no usable prefix (see
    /// [`ServiceConfig::max_result_bytes`]).
    MemoryExceeded,
    /// The execution panicked. The panic was caught at the service
    /// boundary — budget grants, locks and counters were released/
    /// recovered — and the service keeps serving; the payload message
    /// is preserved for diagnostics.
    Internal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Parse(e) => write!(f, "{e}"),
            ServiceError::Cancelled => write!(f, "query cancelled"),
            ServiceError::TimedOut => write!(f, "query timed out"),
            ServiceError::MemoryExceeded => write!(f, "result memory budget exceeded"),
            ServiceError::Internal(msg) => write!(f, "internal execution error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<QueryError> for ServiceError {
    fn from(e: QueryError) -> ServiceError {
        ServiceError::Parse(e)
    }
}

/// Cooperative cancellation handle for one in-flight execution. Clone
/// it, hand one clone to the execution and keep the other; `cancel`
/// stops the engine at the next slice boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Fresh, un-raised token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raise the token; the running query stops at its next slice.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    fn flag(&self) -> &AtomicBool {
        &self.0
    }
}

/// Per-execution options.
#[derive(Debug, Clone, Default)]
pub struct ExecuteOptions {
    /// Override the service default timeout.
    pub timeout: Option<Duration>,
    /// Cancellation handle.
    pub cancel: Option<CancelToken>,
    /// Override the service default result-byte budget
    /// ([`ServiceConfig::max_result_bytes`]) for this execution.
    pub max_result_bytes: Option<usize>,
}

/// Monotonic service-wide counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Successfully completed queries.
    pub queries: u64,
    /// Executions warm-started from the learning cache.
    pub warm_starts: u64,
    /// Executions with no exact-template entry whose cold tree was
    /// seeded with cross-query knowledge priors instead (mutually
    /// exclusive with `warm_starts` per execution).
    pub prior_seeded: u64,
    /// Executions whose join phase stopped early via LIMIT pushdown.
    pub limit_pushdowns: u64,
    /// Executions cancelled via a [`CancelToken`].
    pub cancelled: u64,
    /// Executions that hit their timeout.
    pub timed_out: u64,
    /// Executions whose result-byte budget tripped (both the clean
    /// failures and the LIMIT prefixes that were kept).
    pub memory_exceeded: u64,
    /// Query executions that panicked and were isolated at the service
    /// boundary ([`ServiceError::Internal`]).
    pub panicked: u64,
    /// Queries currently executing (gauge, not monotonic — maintained
    /// by an RAII guard, so it stays accurate across panics).
    pub queries_in_flight: u64,
    /// Client connections currently open on the network front end
    /// (`skinner-net`; gauge, RAII-maintained via
    /// [`QueryService::connection_opened`]).
    pub connections_open: u64,
    /// Connections refused by admission (the front end's connection cap
    /// was reached and the client was answered with a Busy frame, then
    /// closed — counted via [`QueryService::connection_rejected`]).
    pub connections_rejected: u64,
    /// Learning-cache counters.
    pub cache: CacheStats,
    /// Knowledge-store counters (cross-query priors, see
    /// `skinner-knowledge`).
    pub knowledge: KnowledgeStats,
    /// Kernel-shape cache counters (codegen tier, see `skinner-codegen`).
    /// Kept only for `benchmark/`, whose ROADMAP item 2 `[benchmark]`
    /// commit removes them with the cache.
    pub kernels: KernelCacheStats,
    /// Join orders executed on a compiled kernel (one kernel over the
    /// whole order, at any length): every bound order.
    pub codegen_orders: u64,
    /// Always 0: every join order runs on a compiled kernel. Kept only
    /// for `benchmark/`, whose ROADMAP item 2 `[benchmark]` commit
    /// removes it.
    pub fallback_orders: u64,
    /// Time slices executed on a compiled kernel: always every slice.
    /// Kept only for `benchmark/`, whose ROADMAP item 2 `[benchmark]`
    /// commit removes it.
    pub codegen_slices: u64,
}

#[derive(Debug)]
struct CatalogState {
    catalog: Catalog,
    version: u64,
    /// Per-table versions: bumped for exactly the table a mutation
    /// replaces, so learning-cache entries over other tables survive.
    table_versions: FxHashMap<String, u64>,
}

impl CatalogState {
    /// The `(table, version)` dependency list of `query` (FROM order;
    /// never-mutated tables are version 0).
    fn deps_of(&self, query: &Query) -> TableDeps {
        query
            .tables
            .iter()
            .map(|b| {
                let name = b.table.name();
                (
                    name.to_string(),
                    self.table_versions.get(name).copied().unwrap_or(0),
                )
            })
            .collect()
    }
}

/// Root visit share above which a cached template's learning counts as
/// converged for admission sizing (see [`learning_converged`]). UCB1
/// keeps a trickle of exploration forever, so even a fully settled
/// learner rarely exceeds ~0.9; 0.75 means three quarters of all root
/// visits went to a single first table.
const CONVERGED_ROOT_SHARE: f64 = 0.75;

/// Minimum learned rounds before the root share is trusted: a tree
/// with a handful of visits can show a lopsided share by noise alone.
const CONVERGED_MIN_ROUNDS: u64 = 64;

/// Has this cached learning actually converged on a join order?
/// Admission uses this to decide whether a warm template takes one
/// permit (it will finish in a few slices anyway) or the proportional
/// grant (warm start helps, but substantial exploration/work remains).
fn learning_converged(snapshot: &TreeSnapshot<TableId>) -> bool {
    snapshot.rounds() >= CONVERGED_MIN_ROUNDS
        && snapshot
            .root_best_share()
            .is_some_and(|share| share >= CONVERGED_ROOT_SHARE)
}

/// The concurrent query service (see module docs).
#[derive(Debug)]
pub struct QueryService {
    config: ServiceConfig,
    catalog: RwLock<CatalogState>,
    udfs: UdfRegistry,
    cache: LearningCache,
    /// Cross-query knowledge (coarse fingerprints → selectivity/edge
    /// statistics), seeding cold trees when the exact-template cache
    /// misses. Mutex, not RwLock: both seeding and recording mutate.
    knowledge: Mutex<KnowledgeStore>,
    kernels: KernelCache,
    budget: CoreBudget,
    /// The persistent morsel pool shared by every query this service
    /// runs: sized to the core budget, so `CoreBudget` admission (how
    /// many filter morsels a query's pre-processing may run at once)
    /// and pool capacity (how many run at once in total) describe the
    /// same resource.
    pool: Arc<WorkerPool>,
    queries: AtomicU64,
    warm_starts: AtomicU64,
    prior_seeded: AtomicU64,
    codegen_orders: AtomicU64,
    fallback_orders: AtomicU64,
    codegen_slices: AtomicU64,
    limit_pushdowns: AtomicU64,
    cancelled: AtomicU64,
    timed_out: AtomicU64,
    memory_exceeded: AtomicU64,
    panicked: AtomicU64,
    in_flight: AtomicU64,
    connections_open: AtomicU64,
    connections_rejected: AtomicU64,
}

/// RAII in-flight gauge: decrements on drop, so the count stays right
/// even when the guarded execution panics (the unwind drops it before
/// `catch_unwind` converts the panic to [`ServiceError::Internal`]).
struct InFlightGuard<'a>(&'a AtomicU64);

impl<'a> InFlightGuard<'a> {
    fn enter(counter: &'a AtomicU64) -> InFlightGuard<'a> {
        counter.fetch_add(1, Ordering::Relaxed);
        InFlightGuard(counter)
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// RAII handle for one open client connection: created by
/// [`QueryService::connection_opened`], decrements the
/// `connections_open` gauge on drop — so the gauge stays accurate no
/// matter how the connection handler exits (clean goodbye, protocol
/// error, I/O failure, panic unwind).
#[derive(Debug)]
pub struct ConnectionGuard {
    service: Arc<QueryService>,
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.service
            .connections_open
            .fetch_sub(1, Ordering::Relaxed);
    }
}

impl QueryService {
    /// Service over `catalog` with `udfs` resolving UDF calls.
    pub fn new(catalog: Catalog, udfs: UdfRegistry, config: ServiceConfig) -> Arc<QueryService> {
        let budget = CoreBudget::new(config.engine.threads);
        let pool = WorkerPool::new(budget.total());
        Arc::new(QueryService {
            config,
            catalog: RwLock::new(CatalogState {
                catalog,
                version: 0,
                table_versions: FxHashMap::default(),
            }),
            udfs,
            cache: LearningCache::new(),
            knowledge: Mutex::new(KnowledgeStore::new(KnowledgeConfig::default())),
            kernels: KernelCache::new(),
            budget,
            pool,
            queries: AtomicU64::new(0),
            warm_starts: AtomicU64::new(0),
            prior_seeded: AtomicU64::new(0),
            codegen_orders: AtomicU64::new(0),
            fallback_orders: AtomicU64::new(0),
            codegen_slices: AtomicU64::new(0),
            limit_pushdowns: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            memory_exceeded: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            connections_rejected: AtomicU64::new(0),
        })
    }

    /// Read-lock the catalog state, recovering from poisoning. Catalog
    /// reads never observe a half-applied mutation even after a poison:
    /// [`register_table`](Self::register_table) is the only writer and
    /// its updates are individually consistent, so recovery is the
    /// availability-preserving choice (a single caught query panic must
    /// not turn every later catalog access into a panic).
    fn catalog_read(&self) -> RwLockReadGuard<'_, CatalogState> {
        self.catalog.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn catalog_write(&self) -> RwLockWriteGuard<'_, CatalogState> {
        self.catalog.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `f` with panic isolation: a panic anywhere in the per-query
    /// path unwinds cleanly — the budget grant (RAII), the in-flight
    /// gauge (RAII) and any poisoned locks (recovered on next access)
    /// are all released — and surfaces as [`ServiceError::Internal`]
    /// while the service keeps serving.
    fn isolated<T>(&self, f: impl FnOnce() -> Result<T, ServiceError>) -> Result<T, ServiceError> {
        let _in_flight = InFlightGuard::enter(&self.in_flight);
        // `AssertUnwindSafe`: the closure touches `&self` state guarded
        // by locks; the lock helpers recover poisoning and every guarded
        // mutation is transactional (see `catalog_read`), so observing
        // post-panic state is safe.
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(result) => result,
            Err(payload) => {
                self.panicked.fetch_add(1, Ordering::Relaxed);
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "query execution panicked".to_string()
                };
                Err(ServiceError::Internal(msg))
            }
        }
    }

    /// Open a session (a cheap handle; any number may run concurrently).
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            service: self.clone(),
        }
    }

    /// A point-in-time copy of the catalog (table data is shared, not
    /// copied — tables are `Arc`s).
    pub fn catalog(&self) -> Catalog {
        self.catalog_read().catalog.clone()
    }

    /// Register (or replace) a table. Bumps the global catalog version
    /// *and* the table's own version, which invalidates exactly the
    /// cached learning entries touching that table — learned join orders
    /// are data-dependent and must not survive data changes (stale
    /// entries are purged eagerly, not just lazily on lookup), but
    /// templates over unrelated tables keep their learning. In-flight
    /// queries keep executing against the table `Arc`s they resolved at
    /// parse time (snapshot semantics). The kernel-shape cache is
    /// untouched: shapes are data-independent.
    pub fn register_table(&self, table: Table) {
        let name = table.name().to_string();
        {
            let mut st = self.catalog_write();
            st.catalog.register(table);
            st.version += 1;
            let version = st.version;
            st.table_versions.insert(name.clone(), version);
        }
        self.cache.invalidate_table(&name);
        // The knowledge store is versioned the same way: everything
        // learned from the replaced table's data is dropped eagerly,
        // knowledge about unrelated tables survives.
        self.knowledge().invalidate_table(&name);
    }

    /// Service-wide counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            queries: self.queries.load(Ordering::Relaxed),
            warm_starts: self.warm_starts.load(Ordering::Relaxed),
            prior_seeded: self.prior_seeded.load(Ordering::Relaxed),
            limit_pushdowns: self.limit_pushdowns.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            memory_exceeded: self.memory_exceeded.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            queries_in_flight: self.in_flight.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
            cache: self.cache.stats(),
            knowledge: self.knowledge().stats(),
            kernels: self.kernels.stats(),
            codegen_orders: self.codegen_orders.load(Ordering::Relaxed),
            fallback_orders: self.fallback_orders.load(Ordering::Relaxed),
            codegen_slices: self.codegen_slices.load(Ordering::Relaxed),
        }
    }

    /// Record one accepted client connection; the gauge drops back when
    /// the returned guard does. The network front end (`skinner-net`)
    /// calls this on every accept, and the wire `Stats` frame and
    /// `skinner-serve`'s post-drain check read the gauge back.
    pub fn connection_opened(self: &Arc<Self>) -> ConnectionGuard {
        self.connections_open.fetch_add(1, Ordering::Relaxed);
        ConnectionGuard {
            service: self.clone(),
        }
    }

    /// Count one connection refused by admission (connection cap hit;
    /// the client was told so with a typed Busy frame, not silently
    /// dropped).
    pub fn connection_rejected(&self) {
        self.connections_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// The learning cache (introspection: entry count, bytes).
    pub fn learning_cache(&self) -> &LearningCache {
        &self.cache
    }

    /// Lock the knowledge store, recovering from poisoning (its
    /// mutations are individually consistent, so post-panic state is
    /// safe to keep serving — matching the catalog/cache policy).
    pub fn knowledge(&self) -> MutexGuard<'_, KnowledgeStore> {
        self.knowledge
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The shared core budget (introspection: total/available permits —
    /// fault tests assert no grant leaks across panics).
    pub fn core_budget(&self) -> &CoreBudget {
        &self.budget
    }

    /// The persistent morsel pool executing every query's
    /// pre-processing filter scans (introspection: worker counts,
    /// spawn/replacement totals — the stress tests assert the pool
    /// recovers full strength after injected morsel panics).
    pub fn worker_pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Parse `sql` against the current catalog, returning the query, the
    /// per-table versions it was bound at, and the execution start
    /// instant.
    fn parse_sql(&self, sql: &str) -> Result<(Query, TableDeps, Instant), ServiceError> {
        let start = Instant::now();
        // Parse under a read lock; the query holds `Arc`s to its tables,
        // so execution is snapshot-consistent even if the catalog mutates
        // concurrently.
        let st = self.catalog_read();
        let query = parse(sql, &st.catalog, &self.udfs)?;
        let deps = st.deps_of(&query);
        Ok((query, deps, start))
    }

    fn execute_inner(&self, sql: &str, opts: &ExecuteOptions) -> Result<QueryResult, ServiceError> {
        self.isolated(|| {
            let (query, deps, start) = self.parse_sql(sql)?;
            self.execute_parsed(&query, &deps, opts, start)
        })
    }

    /// Are `deps` exactly the per-table versions currently registered
    /// (and every named table still present)? The persistence loader
    /// uses this to skip records whose tables changed — or vanished —
    /// between save and load.
    pub(crate) fn deps_are_current(&self, deps: &TableDeps) -> bool {
        let st = self.catalog_read();
        deps.iter().all(|(name, version)| {
            st.catalog.get(name).is_ok()
                && st.table_versions.get(name).copied().unwrap_or(0) == *version
        })
    }

    /// Single-table version of [`deps_are_current`](Self::deps_are_current)
    /// (the knowledge loader filters per entry dependency).
    pub(crate) fn table_is_current(&self, name: &str, version: u64) -> bool {
        let st = self.catalog_read();
        st.catalog.get(name).is_ok() && st.table_versions.get(name).copied().unwrap_or(0) == version
    }

    /// Run the join phase of `query` into `sink` through admission, the
    /// learning cache and the knowledge store, and the engine's per-run
    /// controls. Returns the raw outcome plus `RunStats` with everything
    /// except `postprocess`/`total` filled in (the caller finalizes those
    /// around its own materialization or streaming).
    fn run_query<S: Collector>(
        &self,
        query: &Query,
        deps: &TableDeps,
        opts: &ExecuteOptions,
        start: Instant,
        sink: &mut S,
    ) -> Result<(SkinnerOutcome, RunStats), ServiceError> {
        let key = TemplateKey::of(query);
        let cached = self.cache.lookup(&key, deps);

        // No exact-template entry: ask the knowledge store for coarse
        // cross-query priors (an exact snapshot always wins — the
        // engine ignores `arm_priors` when a `prior` is present).
        let priors = if cached.is_none() {
            self.knowledge().seed(query, deps)
        } else {
            None
        };

        // Deadline covers queueing: a query stuck behind a long queue
        // fails fast rather than running past its budget — both the
        // admission wait and the engine honor it.
        let deadline = opts
            .timeout
            .or(self.config.default_timeout)
            .map(|t| start + t);
        let cancel = opts.cancel.as_ref().map(CancelToken::flag);

        // Admission: FIFO over the shared core budget, which doubles as
        // pool admission — the grant decides how many filter morsels
        // this query's pre-processing may run on the shared worker pool,
        // and is held through the single-threaded join phase (post-
        // processing runs off-budget). Adaptive sizing: a warm template
        // whose cached learning has *converged* (root visit mass
        // concentrated on one order) settles in a handful of slices, so
        // it takes one permit and leaves the pool to cold queries. Mere
        // cache presence is not enough: a warm but unconverged template
        // (interrupted run, still-exploring learner, lots of remaining
        // work) keeps the proportional grant.
        let max_workers = match &cached {
            Some(c) if learning_converged(c) => 1,
            _ => usize::MAX,
        };
        let grant = match self.budget.acquire_limited(max_workers, deadline, cancel) {
            Ok(grant) => grant,
            Err(AdmissionError::Cancelled) => {
                self.cancelled.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Cancelled);
            }
            Err(AdmissionError::TimedOut) => {
                self.timed_out.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::TimedOut);
            }
        };
        let mut engine_cfg = self.config.engine;
        engine_cfg.threads = grant.threads();

        let run_opts = RunOptions {
            prior: cached.as_ref(),
            arm_priors: priors.as_ref(),
            cancel,
            deadline,
            target_rows: query.join_limit(),
            max_result_bytes: opts.max_result_bytes.or(self.config.max_result_bytes),
            capture_learning: true,
            kernel_cache: Some(&self.kernels),
            pool: Some(self.pool.clone()),
        };
        let mut out = SkinnerC::new(engine_cfg).run_into(query, &run_opts, sink);
        drop(grant);

        match out.stop {
            StopReason::Cancelled => {
                self.cancelled.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Cancelled);
            }
            StopReason::DeadlineExceeded => {
                self.timed_out.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::TimedOut);
            }
            StopReason::RowTarget => {
                self.limit_pushdowns.fetch_add(1, Ordering::Relaxed);
            }
            StopReason::MemoryExceeded => {
                self.memory_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            StopReason::Completed => {}
        }

        let warm_start = out.metrics.warm_start_nodes > 0;
        if warm_start {
            self.warm_starts.fetch_add(1, Ordering::Relaxed);
        }
        let prior_seeded = out.metrics.prior_seeded_nodes > 0;
        if prior_seeded {
            self.prior_seeded.fetch_add(1, Ordering::Relaxed);
        }
        // Codegen-tier accounting, service-wide: how many orders compiled
        // and how many slices the compiled kernels carried. Surfaced via
        // `\stats` and the wire Stats frame.
        self.codegen_orders
            .fetch_add(out.metrics.codegen_orders as u64, Ordering::Relaxed);
        self.fallback_orders
            .fetch_add(out.metrics.fallback_orders as u64, Ordering::Relaxed);
        self.codegen_slices
            .fetch_add(out.metrics.codegen_slices, Ordering::Relaxed);
        // The learning from an interrupted run is still valid (the tree
        // state is sound at every slice boundary), so even a
        // memory-exceeded run warms its template — a retry with a bigger
        // budget converges faster.
        if let Some(snapshot) = out.learning.take() {
            self.cache.store(key, deps.clone(), snapshot);
        }
        // Feed the knowledge store: selectivity and edge-reward
        // observations generalize across templates, so learned runs
        // contribute (interrupted ones included — per-slice edge
        // rewards are valid at any boundary). Warm-started runs are
        // excluded: they replay a converged tree, so virtually every
        // slice executes one order and the recorded edge shares collapse
        // to 0/1 — zero-exploration evidence that drowns out the
        // balanced shares cold runs contribute and flips rankings on
        // templates the store has never seen.
        if !warm_start {
            let obs = observe(query, deps, &out.metrics);
            self.knowledge().record(&obs);
        }

        // Graceful degradation: a LIMIT-pushdown query keeps the
        // distinct prefix it streamed (flagged via `stop`); any other
        // shape needs the complete join result, so a budget trip is a
        // clean failure.
        if out.stop == StopReason::MemoryExceeded && query.join_limit().is_none() {
            return Err(ServiceError::MemoryExceeded);
        }

        let stats = RunStats {
            join_phase: out.metrics.preprocess_time + out.metrics.join_time,
            result_count: out.result_count,
            slices: out.metrics.slices,
            final_order: Some(out.final_order.clone()),
            stop: Some(out.stop),
            cache_hit: cached.is_some(),
            warm_start,
            prior_seeded,
            metrics: Some(out.metrics.clone()),
            ..Default::default()
        };
        self.queries.fetch_add(1, Ordering::Relaxed);
        Ok((out, stats))
    }

    /// Run `query` and materialize its result: a global MIN/MAX
    /// ([`Query::folds_into_min_max`]) folds into a [`MinMaxFold`] while
    /// the join runs, every other query is post-processed from its
    /// distinct join tuples.
    fn execute_parsed(
        &self,
        query: &Query,
        deps: &TableDeps,
        opts: &ExecuteOptions,
        start: Instant,
    ) -> Result<QueryResult, ServiceError> {
        if query.folds_into_min_max() {
            let mut fold = MinMaxFold::new(query);
            let (_, stats) = self.run_query(query, deps, opts, start, &mut fold)?;
            return Ok(QueryResult::finish(start, stats, || fold.finish()));
        }
        let mut results = ResultSet::new();
        let (out, stats) = self.run_query(query, deps, opts, start, &mut results)?;
        Ok(QueryResult::finish(start, stats, || {
            postprocess(query, &out.tuples)
        }))
    }
}

/// One client session: a handle for submitting SQL to the service.
#[derive(Debug)]
pub struct Session {
    service: Arc<QueryService>,
}

impl Session {
    /// Execute `sql` with default options, blocking until admitted and
    /// complete.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, ServiceError> {
        self.execute_with(sql, &ExecuteOptions::default())
    }

    /// Execute `sql` with a per-query timeout and/or cancel token.
    pub fn execute_with(
        &mut self,
        sql: &str,
        opts: &ExecuteOptions,
    ) -> Result<QueryResult, ServiceError> {
        self.service.execute_inner(sql, opts)
    }

    /// Execute `sql`, delivering result rows through `on_row` one at a
    /// time; `on_row` returning `false` stops delivery. For queries
    /// whose join tuples map 1:1 to output rows (no aggregates, GROUP
    /// BY, ORDER BY or DISTINCT) rows are projected lazily from the
    /// join result — an early `false` skips the projection and
    /// materialization of every remaining row, and a SQL `LIMIT`
    /// additionally bounds the join work itself (LIMIT pushdown).
    /// Other query shapes require their full post-processing pass
    /// first and stream the finished rows. Returns the run statistics.
    pub fn execute_streaming(
        &mut self,
        sql: &str,
        opts: &ExecuteOptions,
        on_row: impl FnMut(&[Value]) -> bool,
    ) -> Result<RunStats, ServiceError> {
        self.execute_streaming_with_schema(sql, opts, |_cols| {}, on_row)
    }

    /// [`execute_streaming`](Session::execute_streaming), but `on_schema`
    /// receives the output column names (the SELECT list) after the
    /// query parses and before the first row is delivered — what a wire
    /// protocol needs to frame a result header ahead of streamed rows.
    /// `on_schema` is *not* called when parsing fails (the error carries
    /// the diagnosis) but *is* called even when zero rows follow.
    pub fn execute_streaming_with_schema(
        &mut self,
        sql: &str,
        opts: &ExecuteOptions,
        on_schema: impl FnOnce(&[String]),
        mut on_row: impl FnMut(&[Value]) -> bool,
    ) -> Result<RunStats, ServiceError> {
        let service = &self.service;
        service.isolated(move || {
            let (query, deps, start) = service.parse_sql(sql)?;
            let columns: Vec<String> = query.select.iter().map(|s| s.name().to_string()).collect();
            on_schema(&columns);
            // 1:1 shape ⇔ the LIMIT-pushdown eligibility conditions
            // (with or without an actual LIMIT).
            let streamable = !query.has_aggregates()
                && query.group_by.is_empty()
                && query.order_by.is_empty()
                && !query.distinct;
            if !streamable {
                let result = service.execute_parsed(&query, &deps, opts, start)?;
                for row in &result.table.rows {
                    if !on_row(row) {
                        break;
                    }
                }
                return Ok(result.stats);
            }
            let mut results = ResultSet::new();
            let (out, mut stats) = service.run_query(&query, &deps, opts, start, &mut results)?;
            let post_start = Instant::now();
            let tables: Vec<TableRef> = query.tables.iter().map(|b| b.table.clone()).collect();
            let m = out.num_tables.max(1);
            let limit = query.limit.unwrap_or(usize::MAX);
            for tup in out.tuples.chunks_exact(m).take(limit) {
                let row = project_tuple(&query, tup, &tables);
                if !on_row(&row) {
                    break;
                }
            }
            stats.postprocess = post_start.elapsed();
            stats.total = start.elapsed();
            Ok(stats)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_storage::{Column, ColumnDef, Schema, ValueType};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mk = |name: &str, keys: Vec<i64>| {
            Table::new(
                name,
                Schema::new([
                    ColumnDef::new("k", ValueType::Int),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(keys.clone()),
                    Column::from_ints((0..keys.len() as i64).collect()),
                ],
            )
            .unwrap()
        };
        cat.register(mk("a", (0..64).map(|i| i % 8).collect()));
        cat.register(mk("b", (0..32).map(|i| i % 8).collect()));
        cat
    }

    /// A default-configured service over [`catalog`], without UDFs.
    fn service() -> Arc<QueryService> {
        QueryService::new(catalog(), UdfRegistry::new(), ServiceConfig::default())
    }

    #[test]
    fn execute_parses_and_answers() {
        let svc = service();
        let mut s = svc.session();
        let r = s
            .execute("SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k")
            .expect("query");
        assert_eq!(r.table.rows[0][0], Value::Int(64 * 4));
        assert_eq!(svc.stats().queries, 1);
    }

    #[test]
    fn warm_admission_requires_convergence() {
        use skinner_uct::{SnapshotNode, TreeSnapshot};
        // Depth-1 tree: root with two materialized children splitting
        // the root's visit mass as given.
        let snap = |visits: [u64; 2], rounds: u64| {
            TreeSnapshot::from_parts(
                vec![
                    SnapshotNode {
                        visits: visits.iter().sum(),
                        reward_sum: 0.0,
                        actions: vec![0usize, 1],
                        children: vec![1, 2],
                    },
                    SnapshotNode {
                        visits: visits[0],
                        reward_sum: 0.0,
                        actions: vec![],
                        children: vec![],
                    },
                    SnapshotNode {
                        visits: visits[1],
                        reward_sum: 0.0,
                        actions: vec![],
                        children: vec![],
                    },
                ],
                rounds,
            )
            .unwrap()
        };
        // Converged: many rounds, 90% of root visits on one child —
        // this warm template takes a 1-permit grant.
        assert!(learning_converged(&snap([90, 10], 100)));
        // Warm but still exploring: cache presence alone must NOT cap
        // the grant.
        assert!(!learning_converged(&snap([60, 40], 100)));
        // Too few rounds to trust even a lopsided share.
        assert!(!learning_converged(&snap([9, 1], 10)));
    }

    #[test]
    fn parse_errors_surface() {
        let svc = service();
        let mut s = svc.session();
        assert!(matches!(
            s.execute("SELECT FROM nothing"),
            Err(ServiceError::Parse(_))
        ));
        assert_eq!(svc.stats().queries, 0);
    }

    #[test]
    fn repeated_template_hits_cache_and_warm_starts() {
        let svc = service();
        let mut s = svc.session();
        let sql = "SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k AND a.v < 60";
        let cold = s.execute(sql).expect("cold");
        assert!(!cold.stats.cache_hit);
        assert!(!cold.stats.warm_start);
        // Same template, different constant.
        let warm = s
            .execute("SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k AND a.v < 59")
            .expect("warm");
        assert!(warm.stats.cache_hit);
        assert!(warm.stats.warm_start);
        let st = svc.stats();
        assert_eq!(st.cache.hits, 1);
        assert_eq!(st.warm_starts, 1);
        assert_eq!(svc.learning_cache().len(), 1);
    }

    #[test]
    fn catalog_update_invalidates_cache() {
        let svc = service();
        let mut s = svc.session();
        let sql = "SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k";
        s.execute(sql).expect("cold");
        let v0 = svc.catalog_read().version;
        // Replace "b" with different data.
        svc.register_table(
            Table::new(
                "b",
                Schema::new([
                    ColumnDef::new("k", ValueType::Int),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![0, 0, 1]),
                    Column::from_ints(vec![9, 9, 9]),
                ],
            )
            .unwrap(),
        );
        assert_eq!(svc.catalog_read().version, v0 + 1);
        let fresh = s.execute(sql).expect("fresh");
        assert!(!fresh.stats.cache_hit, "stale entry must not be served");
        assert_eq!(fresh.table.rows[0][0], Value::Int(64 / 8 * 2 + 64 / 8));
        assert_eq!(svc.stats().cache.invalidated, 1);
    }

    #[test]
    fn unrelated_table_registration_keeps_cache() {
        let svc = service();
        let mut s = svc.session();
        let sql = "SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k";
        s.execute(sql).expect("cold");
        assert_eq!(svc.learning_cache().len(), 1);
        // Register a brand-new table neither "a" nor "b": the cached
        // learning for a⋈b must survive and keep warm-starting.
        svc.register_table(
            Table::new(
                "c",
                Schema::new([ColumnDef::new("x", ValueType::Int)]),
                vec![Column::from_ints(vec![1, 2, 3])],
            )
            .unwrap(),
        );
        assert_eq!(svc.learning_cache().len(), 1, "unrelated mutation flushed");
        let warm = s.execute(sql).expect("warm");
        assert!(warm.stats.cache_hit, "per-table invalidation too coarse");
        assert_eq!(svc.stats().cache.invalidated, 0);
    }

    #[test]
    fn knowledge_priors_seed_new_templates() {
        let svc = service();
        let mut s = svc.session();
        // Train on one template: records a⋈b edge rewards + table
        // selectivities into the knowledge store.
        s.execute("SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k AND a.v < 60")
            .expect("train");
        assert!(svc.stats().knowledge.records > 0);
        assert!(!svc.knowledge().is_empty());

        // A *held-out* template (different predicate shape → cache
        // miss) over the same join edge is prior-seeded, and its answer
        // matches the prior-free run of the same SQL exactly.
        let sql = "SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k AND b.v < 100";
        let seeded = s.execute(sql).expect("seeded");
        assert!(!seeded.stats.cache_hit);
        assert!(seeded.stats.prior_seeded, "held-out template must seed");
        assert!(!seeded.stats.warm_start);
        assert_eq!(svc.stats().prior_seeded, 1);

        // The exact template repeats: the snapshot wins over priors, and
        // the warm-started run records nothing (its replayed tree's edge
        // shares are zero-exploration evidence).
        let records = svc.stats().knowledge.records;
        let warm = s
            .execute("SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k AND b.v < 99")
            .expect("warm");
        assert!(warm.stats.warm_start);
        assert!(!warm.stats.prior_seeded);
        assert_eq!(svc.stats().prior_seeded, 1, "warm start must not seed");
        assert_eq!(
            svc.stats().knowledge.records,
            records,
            "warm start must not record"
        );
        assert_eq!(warm.table.rows[0][0], seeded.table.rows[0][0]);

        // The held-out template's first run on a fresh service is cold
        // (its store is empty), records what it observed, and answers as
        // the seeded run did.
        let cold_svc = service();
        let cold = cold_svc.session().execute(sql).expect("cold");
        assert!(!cold.stats.prior_seeded);
        assert!(!cold.stats.warm_start);
        assert!(
            cold_svc.stats().knowledge.records > 0,
            "cold run must record"
        );
        assert_eq!(cold.table.rows[0][0], seeded.table.rows[0][0]);
    }

    #[test]
    fn register_table_invalidates_knowledge() {
        let svc = service();
        let mut s = svc.session();
        s.execute("SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k AND a.v < 60")
            .expect("train");
        assert!(!svc.knowledge().is_empty());
        // Replacing `b` drops the a~b edge and b's selectivity entry;
        // a's selectivity entry survives.
        svc.register_table(
            Table::new(
                "b",
                Schema::new([
                    ColumnDef::new("k", ValueType::Int),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![Column::from_ints(vec![0]), Column::from_ints(vec![0])],
            )
            .unwrap(),
        );
        let st = svc.stats().knowledge;
        assert!(st.invalidated > 0);
        let (tables, edges) = svc.knowledge().len();
        assert_eq!(edges, 0, "edge over replaced table must drop");
        assert_eq!(tables, 1, "unrelated table entry must survive");
    }

    #[test]
    fn knowledge_persists_across_services() {
        let dir = std::env::temp_dir().join("skinner_svc_knowledge_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("knowledge.bin");
        let trained = service();
        let mut s = trained.session();
        s.execute("SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k AND a.v < 60")
            .expect("train");
        let n = trained.save_knowledge(&path).expect("save");
        assert!(n > 0);

        // A fresh service (same catalog → same table versions) restores
        // the knowledge and prior-seeds a held-out template first try.
        let restored = service();
        let report = restored.load_knowledge(&path).expect("load");
        assert_eq!(report.loaded, n);
        assert_eq!(report.stale, 0);
        let mut s2 = restored.session();
        let r = s2
            .execute("SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k AND b.v < 100")
            .expect("held-out");
        assert!(r.stats.prior_seeded, "restored knowledge must seed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kernel_cache_shared_across_executions() {
        let svc = service();
        let mut s = svc.session();
        let sql = "SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k";
        s.execute(sql).expect("first");
        let misses = svc.stats().kernels.misses;
        assert!(misses > 0, "shapes must be analyzed once");
        assert!(!svc.kernels.is_empty());
        // Same template again (and even a different constant): the
        // shapes resolve from the cache.
        s.execute("SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k AND a.v < 50")
            .expect("second");
        let st = svc.stats().kernels;
        assert!(st.hits > 0, "repeated shapes must hit");
        // The codegen tier actually ran: orders compiled, none fell back.
        let st = svc.stats();
        assert!(st.codegen_orders > 0, "orders must compile");
        assert_eq!(st.fallback_orders, 0, "no order may fall back");
        assert!(st.codegen_slices > 0, "slices must run compiled");
    }

    #[test]
    fn limit_pushdown_counted() {
        let svc = service();
        let mut s = svc.session();
        let r = s
            .execute("SELECT a.v FROM a, b WHERE a.k = b.k LIMIT 3")
            .expect("limited");
        assert_eq!(r.table.num_rows(), 3);
        assert_eq!(r.stats.stop, Some(StopReason::RowTarget));
        assert_eq!(svc.stats().limit_pushdowns, 1);
    }

    #[test]
    fn cancel_token_stops_query() {
        let svc = service();
        let mut s = svc.session();
        let token = CancelToken::new();
        token.cancel(); // pre-raised: the engine stops before slice 1
        let err = s
            .execute_with(
                "SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k",
                &ExecuteOptions {
                    cancel: Some(token.clone()),
                    ..Default::default()
                },
            )
            .expect_err("cancelled");
        assert!(matches!(err, ServiceError::Cancelled));
        assert!(token.flag().load(Ordering::Relaxed));
        assert_eq!(svc.stats().cancelled, 1);
    }

    #[test]
    fn zero_timeout_times_out() {
        let svc = service();
        let mut s = svc.session();
        let err = s
            .execute_with(
                "SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k",
                &ExecuteOptions {
                    timeout: Some(Duration::ZERO),
                    ..Default::default()
                },
            )
            .expect_err("timed out");
        assert!(matches!(err, ServiceError::TimedOut));
        assert_eq!(svc.stats().timed_out, 1);
    }

    #[test]
    fn streaming_stops_on_false() {
        let svc = service();
        let mut s = svc.session();
        let mut seen = 0;
        let stats = s
            .execute_streaming(
                "SELECT a.v FROM a, b WHERE a.k = b.k",
                &ExecuteOptions::default(),
                |_row| {
                    seen += 1;
                    seen < 5
                },
            )
            .expect("stream");
        assert_eq!(seen, 5);
        assert!(stats.result_count > 5);
    }
}
