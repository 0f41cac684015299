//! The multi-tenant session registry: one shared epoch chain, thousands of
//! resident [`Analyst`] sessions keyed by tenant id, and the dispatcher
//! that turns decoded [`Request`]s into [`Response`]s.
//!
//! # Concurrency contract
//!
//! * **Queries never block.** Each tenant's served [`Estimate`] lives in an
//!   `RwLock<Arc<Estimate>>` beside the session; a query clones the `Arc`
//!   under the read lock (nanoseconds) and computes from the immutable
//!   snapshot with no lock held. Refreshes, rebases and knowledge edits
//!   serialize on the tenant's session `Mutex` *behind* the snapshot and
//!   swap the pointer only after they succeed — so a query observes either
//!   the whole previous estimate or the whole next one, never a mix.
//! * **Epochs are a chain.** [`Registry::apply_delta`] locks the chain,
//!   applies the [`TableDelta`](privacy_maxent::delta::TableDelta) to the
//!   newest [`CompiledTable`], journals
//!   through the [`EpochWal`] **before** publishing (the same
//!   journal-then-publish order `persist` recovery assumes), then pushes
//!   the new epoch. Sessions catch up lazily: the next session-mutating
//!   command (add/remove/refresh/fork) rebases through each intermediate
//!   epoch in order. Queries keep serving the pre-delta snapshot until
//!   then — exactly the [`Analyst`] staleness semantics.
//! * **Per-tenant serialization, cross-tenant parallelism.** Two
//!   connections to the *same* tenant serialize their mutations on that
//!   tenant's `Mutex`; connections to different tenants share nothing but
//!   the epoch chain's brief lock.
//!
//! Old epochs are pruned once every resident session has rebased past
//! them, so a long-running server with active deltas holds O(sessions
//! behind) artifacts, not O(history).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use privacy_maxent::analyst::{Analyst, KnowledgeHandle};
use privacy_maxent::compiled::CompiledTable;
use privacy_maxent::engine::Estimate;
use privacy_maxent::error::PmError;
use privacy_maxent::persist::EpochWal;

use crate::protocol::{
    ErrorCode, HelloInfo, RefreshSummary, ReportSummary, Request, Response, WireDeltaOp,
};
use crate::sync;

/// Admission-control and framing limits. Everything here sheds load with a
/// typed protocol error instead of a stall.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Resident tenant sessions the registry will hold; a hello for a new
    /// tenant beyond this is rejected with [`ErrorCode::TooManyTenants`].
    pub max_tenants: usize,
    /// Concurrent connections the server accepts; beyond this the accept
    /// loop answers [`ErrorCode::TooManyConnections`] and closes.
    pub max_connections: usize,
    /// Largest frame body accepted or sent, in bytes; larger length
    /// prefixes are [`ErrorCode::FrameTooLarge`].
    pub max_frame_bytes: usize,
    /// Most queries in one batch / items in one knowledge or delta batch;
    /// beyond this is [`ErrorCode::OversizedBatch`].
    pub max_batch: usize,
    /// Response frames buffered per connection before a slow-reading
    /// client is shed with [`ErrorCode::SlowConsumer`].
    pub write_queue_frames: usize,
    /// Outbound *bytes* buffered per connection before the same shed
    /// (the reactor backend's bound: its write queue is a byte buffer,
    /// so a few huge frames can overflow it long before the frame
    /// count does; the threaded backend bounds frames only).
    pub write_buffer_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_tenants: 4096,
            max_connections: 1024,
            max_frame_bytes: 4 << 20,
            max_batch: 65_536,
            write_queue_frames: 256,
            write_buffer_bytes: 8 << 20,
        }
    }
}

/// A typed application/admission failure: the wire code plus detail.
#[derive(Debug, Clone)]
pub struct ServeError {
    /// The typed code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub detail: String,
}

impl ServeError {
    fn new(code: ErrorCode, detail: impl Into<String>) -> Self {
        Self { code, detail: detail.into() }
    }

    /// The error as a wire [`Response`].
    #[must_use]
    pub fn response(&self) -> Response {
        Response::Error { code: self.code.code(), detail: self.detail.clone() }
    }
}

fn app_error(e: &PmError) -> ServeError {
    let code = match e {
        PmError::StaleHandle { .. } => ErrorCode::StaleHandle,
        PmError::InvalidDelta { .. } => ErrorCode::InvalidDelta,
        PmError::Infeasible { .. } | PmError::Component { .. } => ErrorCode::Infeasible,
        _ => ErrorCode::App,
    };
    // A wrapper (a component that failed to re-solve) also names its root
    // cause, e.g. the residual that missed the accuracy contract.
    let root = e.root_cause();
    let detail = if std::ptr::eq(root, e) { e.to_string() } else { format!("{e}: {root}") };
    ServeError::new(code, detail)
}

/// What a tenant currently serves: the estimate plus the bucket count of
/// the artifact it was assembled against, captured at publication so the
/// hello payload never mixes epochs.
struct Served {
    estimate: Arc<Estimate>,
    buckets: u64,
}

/// One resident tenant: the session behind a mutex, its served snapshot
/// in front of it, and the epoch the snapshot was produced at.
pub struct Tenant {
    session: Mutex<Analyst>,
    served: RwLock<Served>,
    /// Epoch of the session's artifact (advanced by catch-up rebases);
    /// read by the pruner without taking the session lock.
    epoch: AtomicU64,
}

impl Tenant {
    fn new(session: Analyst) -> Self {
        let served = Served {
            estimate: session.snapshot(),
            buckets: session.artifact().table().num_buckets() as u64,
        };
        let epoch = session.epoch();
        Self {
            session: Mutex::new(session),
            served: RwLock::new(served),
            epoch: AtomicU64::new(epoch),
        }
    }

    /// The tenant's served estimate — an `Arc` clone under a read lock, so
    /// queries never wait on a refresh.
    #[must_use]
    pub fn snapshot(&self) -> Arc<Estimate> {
        Arc::clone(&sync::read(&self.served).estimate)
    }
}

/// The shared epoch chain: every [`CompiledTable`] epoch still referenced
/// by some resident session, oldest first, plus the WAL the deltas journal
/// through.
struct Chain {
    /// Epoch number of `epochs[0]`.
    base: u64,
    /// Contiguous epochs, `epochs[i]` at epoch `base + i`.
    epochs: Vec<Arc<CompiledTable>>,
    wal: Option<EpochWal>,
}

impl Chain {
    fn latest(&self) -> Arc<CompiledTable> {
        // pm-audit: allow(panic-policy, reason = "Registry::new seeds one epoch and prune_below retains at least one, so the vec is never empty")
        Arc::clone(self.epochs.last().expect("chain is never empty"))
    }

    fn at(&self, epoch: u64) -> Option<Arc<CompiledTable>> {
        epoch
            .checked_sub(self.base)
            .and_then(|i| self.epochs.get(i as usize))
            .map(Arc::clone)
    }

    fn prune_below(&mut self, min_epoch: u64) {
        while self.base < min_epoch && self.epochs.len() > 1 {
            self.epochs.remove(0);
            self.base += 1;
        }
    }
}

/// The multi-tenant registry. One per server; shared by every connection
/// thread through an `Arc`.
///
/// Lock order: acquiring `chain` while holding a `tenants` guard is
/// **forbidden** — [`Registry::apply_delta`] holds `chain` and then reads
/// `tenants`, so the only safe order is chain first (or neither). The
/// `lock-order` rule in `pm-audit` (run via `pmx audit` and the tier-1
/// `test_audit_workspace` suite) enforces this mechanically: any chain
/// acquisition lexically inside a live `tenants` guard scope is flagged.
pub struct Registry {
    chain: Mutex<Chain>,
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    limits: Limits,
}

impl Registry {
    /// A registry serving `artifact`, journaling deltas through `wal` when
    /// one is attached (the `--persist` serving mode).
    #[must_use]
    pub fn new(artifact: Arc<CompiledTable>, wal: Option<EpochWal>, limits: Limits) -> Self {
        let base = artifact.epoch();
        Self {
            chain: Mutex::new(Chain { base, epochs: vec![artifact], wal }),
            tenants: RwLock::new(HashMap::new()),
            limits,
        }
    }

    /// The admission limits the server enforces.
    #[must_use]
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// The newest epoch's artifact.
    #[must_use]
    pub fn latest(&self) -> Arc<CompiledTable> {
        sync::lock(&self.chain).latest()
    }

    /// Resident tenant sessions.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        sync::read(&self.tenants).len()
    }

    /// Looks up or creates the resident session for `tenant`, enforcing
    /// the [`Limits::max_tenants`] cap.
    pub fn open_tenant(&self, tenant: &str) -> Result<Arc<Tenant>, ServeError> {
        if let Some(t) = sync::read(&self.tenants).get(tenant) {
            return Ok(Arc::clone(t));
        }
        // Lock order: chain before tenants, never the reverse —
        // `apply_delta` holds the chain mutex while reading the tenants
        // map for its prune floor, so taking the chain under the tenants
        // write lock would be an AB-BA deadlock. Fetch the artifact first;
        // a delta landing between here and the insert is fine, the session
        // just starts one epoch behind and catches up lazily like any
        // other.
        let latest = self.latest();
        let mut tenants = sync::write(&self.tenants);
        if let Some(t) = tenants.get(tenant) {
            return Ok(Arc::clone(t)); // lost the race to another connection
        }
        if tenants.len() >= self.limits.max_tenants {
            return Err(ServeError::new(
                ErrorCode::TooManyTenants,
                format!("registry is at its {}-tenant cap", self.limits.max_tenants),
            ));
        }
        let session = Analyst::open(latest);
        let t = Arc::new(Tenant::new(session));
        tenants.insert(tenant.to_string(), Arc::clone(&t));
        Ok(t)
    }

    /// Applies a table delta to the newest epoch: journal first (when a
    /// WAL is attached), publish after — the recovery ordering `persist`
    /// assumes. Returns the new epoch number.
    pub fn apply_delta(&self, ops: Vec<WireDeltaOp>) -> Result<u64, ServeError> {
        let delta = WireDeltaOp::into_delta(ops);
        let mut chain = sync::lock(&self.chain);
        let latest = chain.latest();
        let next = latest.apply(&delta).map_err(|e| app_error(&e))?;
        let epoch = next.epoch();
        if let Some(wal) = chain.wal.as_mut() {
            let applied = next.applied_delta().ok_or_else(|| {
                ServeError::new(
                    ErrorCode::App,
                    "freshly applied epoch carries no delta payload to journal",
                )
            })?;
            wal.append(epoch, &delta, applied).map_err(|e| app_error(&e))?;
        }
        chain.epochs.push(Arc::new(next));

        // Prune epochs every resident session has already rebased past.
        let min_epoch = {
            let tenants = sync::read(&self.tenants);
            tenants
                .values()
                .map(|t| t.epoch.load(Ordering::Acquire))
                .min()
                .unwrap_or(epoch)
        };
        chain.prune_below(min_epoch);
        Ok(epoch)
    }

    /// Rebases `session` through each intermediate epoch up to the newest,
    /// in order (the [`Analyst::rebase`] direct-successor contract).
    fn catch_up(&self, session: &mut Analyst) -> Result<(), ServeError> {
        loop {
            let target = {
                let chain = sync::lock(&self.chain);
                let current = session.epoch();
                if current >= chain.base + chain.epochs.len() as u64 - 1 {
                    return Ok(());
                }
                chain.at(current + 1).ok_or_else(|| {
                    ServeError::new(
                        ErrorCode::App,
                        format!(
                            "epoch {} was pruned while this session still needed it",
                            current + 1
                        ),
                    )
                })?
            };
            // The chain lock is dropped during the (potentially long)
            // rebase: deltas keep flowing while this session catches up.
            session.rebase(&target).map_err(|e| app_error(&e))?;
        }
    }

    /// Dispatches one decoded request against `tenant`. This is the whole
    /// server semantics in one place — the connection layer above only
    /// frames bytes, the test suites drive this directly where convenient.
    pub fn dispatch(&self, tenant: &Tenant, req: &Request) -> Result<Response, ServeError> {
        match req {
            Request::Hello { .. } => Err(ServeError::new(
                ErrorCode::DuplicateHello,
                "this connection already completed its handshake",
            )),
            Request::Ping => Ok(Response::Pong),
            Request::Query { q, s } => {
                let snap = tenant.snapshot();
                let p = checked_query(&snap, *q, *s)?;
                Ok(Response::Query { p })
            }
            Request::Batch { queries } => {
                if queries.len() > self.limits.max_batch {
                    return Err(oversized("batch", queries.len(), self.limits.max_batch));
                }
                let snap = tenant.snapshot();
                let mut ps = Vec::with_capacity(queries.len());
                for &(q, s) in queries {
                    ps.push(checked_query(&snap, q, s)?);
                }
                Ok(Response::Batch { ps })
            }
            Request::Report => {
                let session = sync::lock(&tenant.session);
                let report = session.report();
                Ok(Response::Report(ReportSummary {
                    knowledge_items: report.knowledge_items as u64,
                    components: report.components as u64,
                    epoch: session.snapshot().epoch(),
                    max_disclosure: report.max_disclosure,
                    effective_l_diversity: report.effective_l_diversity,
                    min_conditional_entropy: report.min_conditional_entropy,
                }))
            }
            Request::AddKnowledge { items } => {
                if items.len() > self.limits.max_batch {
                    return Err(oversized("knowledge batch", items.len(), self.limits.max_batch));
                }
                let knowledge: Vec<_> =
                    items.iter().map(|k| k.clone().into_knowledge()).collect();
                let mut session = sync::lock(&tenant.session);
                self.catch_up(&mut session)?;
                tenant.epoch.store(session.epoch(), Ordering::Release);
                let handles =
                    session.add_knowledge_batch(&knowledge).map_err(|e| app_error(&e))?;
                Ok(Response::AddKnowledge {
                    handles: handles.iter().map(|h| h.id()).collect(),
                })
            }
            Request::Remove { handle } => {
                let mut session = sync::lock(&tenant.session);
                self.catch_up(&mut session)?;
                tenant.epoch.store(session.epoch(), Ordering::Release);
                session
                    .remove_knowledge(KnowledgeHandle::from_id(*handle))
                    .map_err(|e| app_error(&e))?;
                Ok(Response::Removed)
            }
            Request::Refresh => {
                let mut session = sync::lock(&tenant.session);
                self.catch_up(&mut session)?;
                tenant.epoch.store(session.epoch(), Ordering::Release);
                let stats = session.refresh().map_err(|e| app_error(&e))?;
                // Publish the refreshed estimate only after success; queries
                // in flight keep their old snapshot untouched.
                *sync::write(&tenant.served) = Served {
                    estimate: session.snapshot(),
                    buckets: session.artifact().table().num_buckets() as u64,
                };
                Ok(Response::Refresh(RefreshSummary {
                    epoch: session.epoch(),
                    components: stats.components as u64,
                    resolved: stats.resolved as u64,
                    closed_form: stats.closed_form as u64,
                    reused: stats.reused as u64,
                }))
            }
            Request::Fork { tenant: target } => {
                let fork = {
                    let mut session = sync::lock(&tenant.session);
                    self.catch_up(&mut session)?;
                    tenant.epoch.store(session.epoch(), Ordering::Release);
                    session.fork()
                };
                let mut tenants = sync::write(&self.tenants);
                if tenants.contains_key(target) {
                    return Err(ServeError::new(
                        ErrorCode::TenantExists,
                        format!("tenant {target:?} already exists"),
                    ));
                }
                if tenants.len() >= self.limits.max_tenants {
                    return Err(ServeError::new(
                        ErrorCode::TooManyTenants,
                        format!("registry is at its {}-tenant cap", self.limits.max_tenants),
                    ));
                }
                tenants.insert(target.clone(), Arc::new(Tenant::new(fork)));
                Ok(Response::Forked)
            }
            Request::TableDelta { ops } => {
                if ops.len() > self.limits.max_batch {
                    return Err(oversized("delta batch", ops.len(), self.limits.max_batch));
                }
                let epoch = self.apply_delta(ops.clone())?;
                Ok(Response::TableDelta { epoch })
            }
        }
    }

    /// The hello payload for a freshly bound tenant. Every field is read
    /// from one published `Served` state, so the advertised shape always
    /// corresponds to the epoch it names even while deltas land.
    #[must_use]
    pub fn hello_info(&self, tenant: &Tenant) -> HelloInfo {
        let served = sync::read(&tenant.served);
        HelloInfo {
            epoch: served.estimate.epoch(),
            buckets: served.buckets,
            distinct_qi: served.estimate.distinct_qi() as u64,
            sa_cardinality: served.estimate.sa_cardinality() as u64,
        }
    }
}

// Compile-time guarantee that everything connection threads share across
// the registry is `Send + Sync` (same pattern as pm-linalg's matrix types):
// a field change that silently loses the bound becomes a build error here,
// not a distant trait-bound error at a spawn site.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Registry>();
    send_sync::<Tenant>();
    send_sync::<Served>();
    send_sync::<Limits>();
    send_sync::<ServeError>();
};

fn oversized(what: &str, got: usize, cap: usize) -> ServeError {
    ServeError::new(
        ErrorCode::OversizedBatch,
        format!("{what} of {got} exceeds the server's {cap}-item cap"),
    )
}

/// [`Estimate::conditional`] panics on out-of-domain coordinates by
/// contract, so the server validates first and answers a typed
/// [`ErrorCode::InvalidQuery`] instead.
fn checked_query(snap: &Estimate, q: u32, s: u16) -> Result<f64, ServeError> {
    let q = q as usize;
    if q >= snap.distinct_qi() || (s as usize) >= snap.sa_cardinality() {
        return Err(ServeError::new(
            ErrorCode::InvalidQuery,
            format!(
                "query ({q}, {s}) outside the domain ({} QI symbols, {} SA values)",
                snap.distinct_qi(),
                snap.sa_cardinality()
            ),
        ));
    }
    Ok(snap.conditional(q, s))
}
