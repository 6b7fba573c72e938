//! Assembles the real stack of a workload in this process: the trusted
//! tier, one or two `NetworkServer`s on the default reactor transport
//! over loopback TCP, and one `NetworkClient` per driver.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use casper_core::durability::{DurabilityConfig, DurabilityError, RecoveryReport};
use casper_core::engine::AnonymizerService;
use casper_core::net::ServerConfig;
use casper_core::{
    CasperServer, ClientConfig, DirStorage, DurabilityMode, DurableAnonymizer, NetworkClient,
    NetworkServer, PrivateHandle, ReplicatedAnonymizer, ReplicationConfig, ShardedAnonymizer,
    Standby, Storage,
};
use casper_geometry::{Point, Rect};
use casper_grid::{CloakedRegion, MaintenanceStats, Profile, UserId};
use casper_index::ObjectId;
use casper_qp::FilterCount;

use crate::scratch::ScratchDir;
use crate::workload::{
    Population, Tier, WorkloadSpec, DRIVERS, PIPELINE_WINDOW, PYRAMID_HEIGHT, SHARD_LEVEL,
};

/// Filters per query (the paper's best-performing setting).
pub const FILTERS: FilterCount = FilterCount::Four;

/// Threads registering the population during set-up.
const REGISTRARS: usize = 16;

/// How long the replica pair waits for each other before treating
/// silence as a failure (see [`Stack::assemble`]).
const STALL_TOLERANCE: Duration = Duration::from_secs(3);

/// Files whose `write_atomic` is a checkpoint (`durability/recover.rs`).
const CHECKPOINT_PREFIX: &str = "ckpt-";

/// Counters and samples a [`TimedStorage`] has gathered so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageStats {
    /// `append` calls.
    pub appends: u64,
    /// Bytes handed to `append`.
    pub append_bytes: u64,
    /// Wall time of every `sync` (one device flush each), in ns.
    pub sync_ns: Vec<u64>,
    /// Wall time of every checkpoint `write_atomic`, in ns.
    pub checkpoint_ns: Vec<u64>,
}

impl StorageStats {
    /// What happened after `earlier` was taken.
    pub fn since(&self, earlier: &StorageStats) -> StorageStats {
        StorageStats {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            sync_ns: self.sync_ns[earlier.sync_ns.len()..].to_vec(),
            checkpoint_ns: self.checkpoint_ns[earlier.checkpoint_ns.len()..].to_vec(),
        }
    }
}

/// A [`Storage`] decorator that counts and times the durability
/// primitives from outside: the WAL's group commit shows up as `append`
/// and `sync` calls, a checkpoint as a `write_atomic` of a `ckpt-` file.
/// Every call is passed on unchanged. It is in place in traced and
/// untraced runs alike.
#[derive(Debug)]
pub struct TimedStorage<S> {
    inner: S,
    appends: AtomicU64,
    append_bytes: AtomicU64,
    sync_ns: Mutex<Vec<u64>>,
    checkpoint_ns: Mutex<Vec<u64>>,
}

/// Appends one timing. (Samples are plain pushes, valid at every step,
/// so a poisoned lock is recovered.)
fn push_ns(samples: &Mutex<Vec<u64>>, since: Instant) {
    samples
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(since.elapsed().as_nanos() as u64);
}

fn copy_ns(samples: &Mutex<Vec<u64>>) -> Vec<u64> {
    samples
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

impl<S: Storage> TimedStorage<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            appends: AtomicU64::new(0),
            append_bytes: AtomicU64::new(0),
            sync_ns: Mutex::new(Vec::new()),
            checkpoint_ns: Mutex::new(Vec::new()),
        }
    }

    /// A copy of everything gathered so far.
    pub fn stats(&self) -> StorageStats {
        StorageStats {
            appends: self.appends.load(Ordering::Relaxed),
            append_bytes: self.append_bytes.load(Ordering::Relaxed),
            sync_ns: copy_ns(&self.sync_ns),
            checkpoint_ns: copy_ns(&self.checkpoint_ns),
        }
    }
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn list(&self) -> std::io::Result<Vec<String>> {
        self.inner.list()
    }
    fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
        self.inner.read(name)
    }
    fn len(&self, name: &str) -> std::io::Result<u64> {
        self.inner.len(name)
    }
    fn append(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.append_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.append(name, data)
    }
    fn sync(&self, name: &str) -> std::io::Result<()> {
        let start = Instant::now();
        let result = self.inner.sync(name);
        push_ns(&self.sync_ns, start);
        result
    }
    fn write_atomic(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
        let start = Instant::now();
        let result = self.inner.write_atomic(name, data);
        if name.starts_with(CHECKPOINT_PREFIX) {
            push_ns(&self.checkpoint_ns, start);
        }
        result
    }
    fn remove(&self, name: &str) -> std::io::Result<()> {
        self.inner.remove(name)
    }
}

/// The WAL directory decorator every durable workload uses.
pub type Disk = TimedStorage<DirStorage>;
/// The durable trusted tier.
pub type Durable = DurableAnonymizer<ShardedAnonymizer, Disk>;
/// The replicated trusted tier (primary side).
pub type Replicated = ReplicatedAnonymizer<ShardedAnonymizer, Disk>;

fn empty_anonymizer() -> ShardedAnonymizer {
    ShardedAnonymizer::new(PYRAMID_HEIGHT, SHARD_LEVEL)
}

/// Opens (or re-opens) the durable anonymizer stored under `disk`.
pub fn recover(disk: &Arc<Disk>) -> Result<(Durable, RecoveryReport), DurabilityError> {
    DurableAnonymizer::recover(
        Arc::clone(disk),
        DurabilityConfig::default(),
        empty_anonymizer,
    )
}

/// What one update did at the trusted tier.
#[derive(Debug, Clone, Copy)]
pub struct Applied {
    /// Structure-maintenance cost the pyramid reported.
    pub stats: MaintenanceStats,
    /// Whether the workload's durability horizon was reached (always
    /// true without a standby).
    pub synced: bool,
}

/// The trusted tier of a workload. Cloning shares the tier.
#[derive(Clone)]
pub enum TrustedTier {
    /// Durability off.
    Sharded(Arc<ShardedAnonymizer>),
    /// Local-fsync WAL.
    Durable(Arc<Durable>),
    /// WAL shipped to a hot standby, acked at its fsync.
    Replicated(Arc<Replicated>),
}

impl TrustedTier {
    /// Registers a user at the workload's durability horizon.
    pub fn register(&self, uid: UserId, profile: Profile, pos: Point) -> Result<Applied, String> {
        match self {
            TrustedTier::Sharded(a) => Ok(Applied {
                stats: a.register(uid, profile, pos),
                synced: true,
            }),
            TrustedTier::Durable(d) => d
                .try_register(uid, profile, pos)
                .map(|stats| Applied {
                    stats,
                    synced: true,
                })
                .map_err(|e| e.to_string()),
            TrustedTier::Replicated(r) => r
                .try_register(uid, profile, pos)
                .map(|c| Applied {
                    stats: c.stats,
                    synced: c.synced,
                })
                .map_err(|e| e.to_string()),
        }
    }

    /// Applies a location update at the workload's durability horizon.
    pub fn update(&self, uid: UserId, pos: Point) -> Result<Applied, String> {
        match self {
            TrustedTier::Sharded(a) => Ok(Applied {
                stats: a.update_location(uid, pos),
                synced: true,
            }),
            TrustedTier::Durable(d) => d
                .try_update_location(uid, pos)
                .map(|stats| Applied {
                    stats,
                    synced: true,
                })
                .map_err(|e| e.to_string()),
            TrustedTier::Replicated(r) => r
                .try_update_location(uid, pos)
                .map(|c| Applied {
                    stats: c.stats,
                    synced: c.synced,
                })
                .map_err(|e| e.to_string()),
        }
    }

    /// The tier as the program's own service interface (cloaking, reads).
    pub fn service(&self) -> &dyn AnonymizerService {
        match self {
            TrustedTier::Sharded(a) => a.as_ref(),
            TrustedTier::Durable(d) => d.as_ref(),
            TrustedTier::Replicated(r) => r.as_ref(),
        }
    }

    /// Algorithm 1 for one user.
    pub fn cloak(&self, uid: UserId) -> Option<CloakedRegion> {
        self.service().cloak(uid)
    }

    /// Ops committed locally but not yet durably acked by the standby.
    pub fn replication_lag(&self) -> usize {
        match self {
            TrustedTier::Replicated(r) => r.lag(),
            _ => 0,
        }
    }

    /// Cells the sharded pyramid currently maintains.
    pub fn maintained_cells(&self) -> usize {
        match self {
            TrustedTier::Sharded(a) => a.maintained_cells(),
            TrustedTier::Durable(d) => d.inner().maintained_cells(),
            TrustedTier::Replicated(r) => r.durable().inner().maintained_cells(),
        }
    }
}

/// The hot standby of the replicated workload.
pub struct StandbySide {
    /// The standby's own server; the primary ships to its address.
    pub server: NetworkServer,
    /// The attached replica.
    pub standby: Standby<ShardedAnonymizer, Disk>,
    /// The standby's WAL directory.
    pub disk: Arc<Disk>,
}

/// The assembled system of one workload.
pub struct Stack {
    /// The trusted tier.
    pub tier: TrustedTier,
    /// The location-based server the drivers talk to.
    pub server: NetworkServer,
    /// The primary's WAL directory (durable workloads).
    pub disk: Option<Arc<Disk>>,
    /// The standby (replicated workload).
    pub standby: Option<StandbySide>,
    /// One connection per driver.
    pub clients: Vec<NetworkClient>,
    /// Cloaks served during set-up that violated their `(k, A_min)`.
    pub setup_violations: u64,
    /// Holds the WAL directories; removed on drop.
    pub scratch: ScratchDir,
}

/// Client configuration of the drivers: defaults, plus the pipeline
/// window. Default retries and timeouts stay on — a retry is counted
/// (`net.retries_per_kop`), not hidden.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        pipeline_window: PIPELINE_WINDOW,
        ..ClientConfig::default()
    }
}

fn spawn_server(population: &Population, cache: bool, boot_id: Option<u64>) -> NetworkServer {
    let mut server = CasperServer::new();
    server.load_public_targets(
        population
            .targets
            .iter()
            .enumerate()
            .map(|(i, &p)| (ObjectId(i as u64), p)),
    );
    if !cache {
        server.set_query_cache_enabled(false);
    }
    NetworkServer::spawn_with(
        server,
        FILTERS,
        ServerConfig {
            boot_id,
            ..ServerConfig::default()
        },
    )
    .expect("bind a loopback listener")
}

fn open_disk(dir: &std::path::Path) -> Arc<Disk> {
    Arc::new(TimedStorage::new(
        DirStorage::open(dir).expect("open the WAL directory"),
    ))
}

/// The handle a user's cloaked region is stored under at the server.
/// (A deployment would use an unlinkable pseudonym; the benchmark only
/// needs it stable.)
pub fn handle_of(uid: u32) -> PrivateHandle {
    PrivateHandle(u64::from(uid))
}

/// Whether a served cloak honours its user's profile.
pub fn cloak_honours(profile: &Profile, region: &CloakedRegion) -> bool {
    profile.satisfied_by(region.user_count, region.area())
}

impl Stack {
    /// Builds the stack of `spec`, registers every user through the
    /// trusted tier and pushes every user's first cloaked region over
    /// the wire.
    pub fn assemble(spec: &WorkloadSpec, population: &Population) -> Stack {
        let scratch = ScratchDir::create(spec.name).expect("create a scratch directory");
        let (tier, disk, standby, boot_id) = match spec.tier {
            Tier::Sharded => (
                TrustedTier::Sharded(Arc::new(empty_anonymizer())),
                None,
                None,
                None,
            ),
            Tier::Durable => {
                let disk = open_disk(&scratch.path().join("primary"));
                let (durable, _) = recover(&disk).expect("bootstrap the durable tier");
                let epoch = durable.boot_epoch();
                (
                    TrustedTier::Durable(Arc::new(durable)),
                    Some(disk),
                    None,
                    Some(epoch),
                )
            }
            Tier::Replicated => {
                // Defaults, except the two timeouts that turn a stall of
                // the host into a failover: with the default 150 ms of
                // heartbeat silence a slow checkpoint flush promotes
                // the standby and fences the primary for the rest of the
                // run, and with the default 250 ms ack timeout the writes
                // in flight degrade. Here a stall stays what it is for
                // this benchmark, a latency outlier.
                let config = ReplicationConfig {
                    mode: DurabilityMode::StandbyFsync,
                    heartbeat_timeout: STALL_TOLERANCE,
                    ack_timeout: STALL_TOLERANCE,
                    ..ReplicationConfig::default()
                };
                let standby_disk = open_disk(&scratch.path().join("standby"));
                let (standby_durable, _) =
                    recover(&standby_disk).expect("bootstrap the standby tier");
                // The standby serves nothing before promotion; it holds
                // the same targets so a promoted standby could.
                let standby_server = spawn_server(population, spec.cache, None);
                let disk = open_disk(&scratch.path().join("primary"));
                let (durable, _) = recover(&disk).expect("bootstrap the durable tier");
                let epoch = durable.boot_epoch();
                let standby = Standby::attach(
                    Arc::new(standby_durable),
                    Arc::clone(standby_server.plane()),
                    config,
                );
                let primary =
                    ReplicatedAnonymizer::new(Arc::new(durable), standby_server.addr(), config);
                (
                    TrustedTier::Replicated(Arc::new(primary)),
                    Some(disk),
                    Some(StandbySide {
                        server: standby_server,
                        standby,
                        disk: standby_disk,
                    }),
                    Some(epoch),
                )
            }
        };
        let server = spawn_server(population, spec.cache, boot_id);
        let mut clients: Vec<NetworkClient> =
            (0..DRIVERS).map(|_| connect(server.addr())).collect();

        // Registration: every user through the trusted tier's real write
        // path. More threads than drivers, because a replicated commit
        // waits for the standby's ack: one frame carries the records of
        // every committer that is waiting.
        std::thread::scope(|scope| {
            for registrar in 0..REGISTRARS {
                let tier = &tier;
                scope.spawn(move || {
                    for uid in (registrar..population.users()).step_by(REGISTRARS) {
                        let applied = tier
                            .register(
                                UserId(uid as u64),
                                population.profiles[uid],
                                population.trace.initial[uid],
                            )
                            .expect("register a user");
                        assert!(applied.synced, "standby did not ack a registration");
                    }
                });
            }
        });
        // First region push: every user's cloak over the wire, by the
        // drivers' own connections, split by uid parity like the
        // measured phases.
        let violations = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for (driver, client) in clients.iter_mut().enumerate() {
                let (tier, violations) = (&tier, &violations);
                scope.spawn(move || {
                    let mine = || (driver..population.users()).step_by(DRIVERS);
                    let uids: Vec<UserId> = mine().map(|u| UserId(u as u64)).collect();
                    let regions: Vec<(PrivateHandle, Rect)> = tier
                        .service()
                        .cloak_many(&uids)
                        .into_iter()
                        .zip(mine())
                        .map(|(region, uid)| {
                            let region = region.expect("a registered user cloaks");
                            if !cloak_honours(&population.profiles[uid], &region) {
                                violations.fetch_add(1, Ordering::Relaxed);
                            }
                            (handle_of(uid as u32), region.rect)
                        })
                        .collect();
                    client
                        .push_updates(&regions)
                        .expect("push the first cloaked regions");
                });
            }
        });

        Stack {
            tier,
            server,
            disk,
            standby,
            clients,
            setup_violations: violations.into_inner(),
            scratch,
        }
    }

    /// Stops everything the stack started and waits for it: clients
    /// first (so the servers drain), then the replica pair, then the
    /// servers. Returns the WAL directories for the teardown checks.
    pub fn shutdown(self) -> Shutdown {
        let Stack {
            tier,
            server,
            disk,
            standby,
            clients,
            scratch,
            ..
        } = self;
        drop(clients);
        let mut primary_durable_seq = None;
        let mut standby_durable_seq = None;
        if let TrustedTier::Replicated(primary) = &tier {
            // Let the standby's fsync horizon catch up with the last op.
            let deadline = Instant::now() + Duration::from_secs(5);
            while primary.lag() > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            primary_durable_seq = Some(primary.durable().durable_seq());
        }
        let standby_disk = standby.map(|side| {
            standby_durable_seq = Some(side.standby.durable().durable_seq());
            // Dropping the primary stops heartbeats; stop the monitor
            // first so the standby does not promote itself on the way out.
            side.standby.shutdown();
            side.server.shutdown();
            side.disk
        });
        drop(tier);
        server.shutdown();
        Shutdown {
            disk,
            standby_disk,
            primary_durable_seq,
            standby_durable_seq,
            scratch,
        }
    }
}

/// What is left of a stack after [`Stack::shutdown`].
pub struct Shutdown {
    /// The primary's WAL directory, ready to be recovered from.
    pub disk: Option<Arc<Disk>>,
    /// The standby's WAL directory.
    pub standby_disk: Option<Arc<Disk>>,
    /// The primary's fsync horizon once its lag had drained.
    pub primary_durable_seq: Option<u64>,
    /// The standby's fsync horizon at the same moment.
    pub standby_durable_seq: Option<u64>,
    /// Keeps the directories alive until the checks are done.
    pub scratch: ScratchDir,
}

fn connect(addr: SocketAddr) -> NetworkClient {
    NetworkClient::with_config(addr, client_config())
}

/// Wall time, in ms and ascending, of `samples` stand-alone `append` +
/// `sync` pairs of `block` bytes on a fresh file under `dir`: what a
/// device flush costs on this host (or sandbox) right now, so that its
/// drift between runs can be told from a change in the program.
pub fn flush_probe_ms(dir: &std::path::Path, samples: usize, block: usize) -> Vec<f64> {
    let probe = DirStorage::open(dir.join("flush-probe")).expect("open the probe directory");
    let block = vec![0xA5u8; block];
    let mut ms: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            probe.append("probe", &block).expect("probe append");
            probe.sync("probe").expect("probe sync");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_core::MemStorage;

    #[test]
    fn timed_storage_counts_and_times_from_outside() {
        let disk = TimedStorage::new(MemStorage::new());
        disk.append("wal-1", b"abcd").unwrap();
        disk.append("wal-1", b"ef").unwrap();
        disk.sync("wal-1").unwrap();
        let before = disk.stats();
        disk.write_atomic("boot.epoch", b"1").unwrap();
        disk.write_atomic("ckpt-00000000000000000007.cspa", b"x")
            .unwrap();
        disk.append("wal-1", b"g").unwrap();
        disk.sync("wal-1").unwrap();
        let all = disk.stats();
        assert_eq!((all.appends, all.append_bytes), (3, 7));
        assert_eq!(all.sync_ns.len(), 2);
        assert_eq!(all.checkpoint_ns.len(), 1, "boot.epoch is not a checkpoint");
        let delta = all.since(&before);
        assert_eq!((delta.appends, delta.append_bytes), (1, 1));
        assert_eq!(delta.sync_ns.len(), 1);
        assert_eq!(disk.read("wal-1").unwrap(), b"abcdefg");
    }
}
