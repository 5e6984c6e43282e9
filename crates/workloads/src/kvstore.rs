//! The memcached-like key-value store and Facebook's ETC workload.
//!
//! A real sharded hash-map store runs inside L2 behind the generic
//! [`RrServer`](crate::server::RrServer); the [`EtcSource`] request stream
//! follows the published shape of Facebook's ETC pool (Atikoglu et al.,
//! SIGMETRICS'12): GET-dominated (~95 %), small keys, and a heavy-tailed
//! value-size distribution with Zipf-like key popularity.

use svt_sim::FnvHashMap;

use svt_mem::GuestMemory;
use svt_sim::{DetRng, SimDuration};

use crate::loadgen::{Request, RequestSource};
use crate::server::{ParsedRequest, ServeOutput, ServiceModel};

/// Operation codes on the wire.
pub const OP_GET: u32 = 0;
/// SET operation code.
pub const OP_SET: u32 = 1;

/// A sharded in-memory key-value store of value *lengths*.
///
/// The simulated service only ever charges for and replies with a
/// value's length, never its contents, so the store keeps one `u32` per
/// key instead of the value bytes: a SET of a 16 KiB value costs the
/// host 4 bytes, not a 16 KiB heap buffer.
///
/// # Examples
///
/// ```
/// use svt_workloads::KvStore;
///
/// let mut kv = KvStore::new(16);
/// kv.set(7, 3);
/// assert_eq!(kv.get(7), Some(3));
/// assert_eq!(kv.get(8), None);
/// ```
#[derive(Debug)]
pub struct KvStore {
    shards: Vec<FnvHashMap<u64, u32>>,
}

impl KvStore {
    /// Creates a store with `shards` hash shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0);
        KvStore {
            shards: (0..shards).map(|_| FnvHashMap::default()).collect(),
        }
    }

    fn shard(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    /// The stored value length of a key.
    pub fn get(&self, key: u64) -> Option<u32> {
        self.shards[self.shard(key)].get(&key).copied()
    }

    /// Stores a value of `len` bytes.
    pub fn set(&mut self, key: u64, len: u32) {
        let s = self.shard(key);
        self.shards[s].insert(key, len);
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.shards.iter().map(FnvHashMap::len).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The ETC-like request stream.
#[derive(Debug, Clone)]
pub struct EtcSource {
    keys: u64,
    get_fraction: f64,
    zipf_skew: f64,
}

impl EtcSource {
    /// ETC defaults: 95/5 GET/SET over `keys` keys with skew ~0.99.
    pub fn new(keys: u64) -> Self {
        EtcSource {
            keys,
            get_fraction: 0.95,
            zipf_skew: 0.99,
        }
    }

    /// ETC value sizes: dominated by small values with a heavy tail
    /// (~90 % under 1 KB, occasional multi-KB values).
    fn value_size(&self, rng: &mut DetRng) -> u32 {
        let u = rng.unit();
        if u < 0.40 {
            rng.range(2, 64) as u32
        } else if u < 0.90 {
            rng.range(64, 1024) as u32
        } else if u < 0.99 {
            rng.range(1024, 4096) as u32
        } else {
            rng.range(4096, 16_384) as u32
        }
    }
}

impl RequestSource for EtcSource {
    fn next(&mut self, rng: &mut DetRng) -> Request {
        let key = rng.zipf(self.keys, self.zipf_skew);
        let op = if rng.chance(self.get_fraction) {
            OP_GET
        } else {
            OP_SET
        };
        Request {
            op,
            key,
            vsize: self.value_size(rng),
        }
    }
}

/// Warm keyspace of the memcached runners: keys `0..KV_WARM_KEYS` hit
/// from the first request on.
pub const KV_WARM_KEYS: u64 = 50_000;

/// Value length of warm key `key`: deterministic sizes spread over the
/// ETC range.
fn warm_len(key: u64) -> u32 {
    (64 + (key * 37) % 1024) as u32
}

/// The memcached service: real store operations plus a calibrated
/// per-request processing cost.
///
/// The pre-warmed keyspace `0..warm_keys` is not materialised: a warm
/// key's length is a pure function of the key (`64 + (key * 37) % 1024`),
/// so a GET looks in the store first and falls back to that function.
/// SETs go into the store and shadow the warm value, exactly as if the
/// warm-up had stored it. Building a service therefore allocates nothing
/// per warm key, and dropping one frees nothing per warm key.
#[derive(Debug)]
pub struct KvService {
    store: KvStore,
    warm_keys: u64,
    /// Fixed request-parsing + hashing cost.
    pub base_cost: SimDuration,
    /// Per-value-byte memcpy cost.
    pub per_byte: SimDuration,
    hits: u64,
    misses: u64,
    sets: u64,
}

impl KvService {
    /// A service over a fresh store, pre-warmed with `warm_keys` values.
    pub fn new(warm_keys: u64) -> Self {
        KvService {
            store: KvStore::new(64),
            warm_keys,
            base_cost: SimDuration::from_ns(1800),
            per_byte: SimDuration::from_ps(400),
            hits: 0,
            misses: 0,
            sets: 0,
        }
    }

    /// (hits, misses, sets) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.sets)
    }

    /// The store of SET values; warm keys not overwritten by a SET are
    /// derived on lookup and do not appear in it.
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Value length of `key`, if present.
    fn lookup(&self, key: u64) -> Option<u32> {
        self.store
            .get(key)
            .or_else(|| (key < self.warm_keys).then(|| warm_len(key)))
    }
}

impl ServiceModel for KvService {
    fn serve(&mut self, req: &ParsedRequest, _mem: &mut GuestMemory) -> ServeOutput {
        match req.op {
            OP_SET => {
                self.sets += 1;
                self.store.set(req.key, req.vsize);
                ServeOutput {
                    compute: self.base_cost + self.per_byte * req.vsize as u64,
                    reply_len: 8,
                    ..ServeOutput::default()
                }
            }
            _ => {
                let len = match self.lookup(req.key) {
                    Some(len) => {
                        self.hits += 1;
                        len
                    }
                    None => {
                        self.misses += 1;
                        0
                    }
                };
                ServeOutput {
                    compute: self.base_cost + self.per_byte * len as u64,
                    reply_len: 8 + len,
                    ..ServeOutput::default()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_round_trip_and_sharding() {
        let mut kv = KvStore::new(4);
        for k in 0..100 {
            kv.set(k, (k % 32) as u32 + 1);
        }
        assert_eq!(kv.len(), 100);
        for k in 0..100 {
            assert_eq!(kv.get(k).unwrap(), (k % 32) as u32 + 1);
        }
        kv.set(5, 1);
        assert_eq!(kv.get(5).unwrap(), 1);
        assert_eq!(kv.len(), 100);
    }

    /// The store and service as they were before value lengths: every
    /// warm key and every SET holds a materialised value buffer.
    struct ByteKvService {
        shards: Vec<FnvHashMap<u64, Vec<u8>>>,
        base_cost: SimDuration,
        per_byte: SimDuration,
        hits: u64,
        misses: u64,
        sets: u64,
    }

    impl ByteKvService {
        fn new(warm_keys: u64) -> Self {
            let mut svc = ByteKvService {
                shards: (0..64).map(|_| FnvHashMap::default()).collect(),
                base_cost: SimDuration::from_ns(1800),
                per_byte: SimDuration::from_ps(400),
                hits: 0,
                misses: 0,
                sets: 0,
            };
            for k in 0..warm_keys {
                let size = 64 + (k * 37) % 1024;
                svc.shards[(k % 64) as usize].insert(k, vec![0xAB; size as usize]);
            }
            svc
        }

        fn serve(&mut self, req: &ParsedRequest) -> ServeOutput {
            let shard = &mut self.shards[(req.key % 64) as usize];
            if req.op == OP_SET {
                self.sets += 1;
                shard.insert(req.key, vec![0xCD; req.vsize as usize]);
                return ServeOutput {
                    compute: self.base_cost + self.per_byte * req.vsize as u64,
                    reply_len: 8,
                    ..ServeOutput::default()
                };
            }
            let len = match shard.get(&req.key) {
                Some(v) => {
                    self.hits += 1;
                    v.len() as u32
                }
                None => {
                    self.misses += 1;
                    0
                }
            };
            ServeOutput {
                compute: self.base_cost + self.per_byte * len as u64,
                reply_len: 8 + len,
                ..ServeOutput::default()
            }
        }
    }

    #[test]
    fn length_service_matches_the_byte_service() {
        for warm_keys in [0, 100, KV_WARM_KEYS] {
            let mut lengths = KvService::new(warm_keys);
            let mut bytes = ByteKvService::new(warm_keys);
            let mut mem = GuestMemory::new(4096);
            let mut src = EtcSource::new(100_000);
            let mut rng = DetRng::seed(warm_keys + 1);
            let mut reqs: Vec<ParsedRequest> = (0..20_000)
                .map(|_| {
                    let r = src.next(&mut rng);
                    ParsedRequest {
                        send_ps: 0,
                        key: r.key,
                        op: r.op,
                        vsize: r.vsize,
                    }
                })
                .collect();
            // Keys at and past the warm boundary: miss, SET, then hit.
            for key in [
                warm_keys.saturating_sub(1),
                warm_keys,
                warm_keys + 1,
                u64::MAX,
            ] {
                for (op, vsize) in [(OP_GET, 0), (OP_SET, 3000), (OP_GET, 0)] {
                    reqs.push(ParsedRequest {
                        send_ps: 0,
                        key,
                        op,
                        vsize,
                    });
                }
            }
            for (i, req) in reqs.iter().enumerate() {
                assert_eq!(
                    lengths.serve(req, &mut mem),
                    bytes.serve(req),
                    "warm_keys {warm_keys}, request {i}: {req:?}"
                );
            }
            assert_eq!(
                lengths.counters(),
                (bytes.hits, bytes.misses, bytes.sets),
                "warm_keys {warm_keys}"
            );
        }
    }

    #[test]
    fn etc_is_get_dominated() {
        let mut src = EtcSource::new(10_000);
        let mut rng = DetRng::seed(11);
        let gets = (0..10_000)
            .filter(|_| src.next(&mut rng).op == OP_GET)
            .count();
        let frac = gets as f64 / 10_000.0;
        assert!((0.93..0.97).contains(&frac), "GET fraction {frac}");
    }

    #[test]
    fn etc_values_are_mostly_small() {
        let mut src = EtcSource::new(10_000);
        let mut rng = DetRng::seed(12);
        let sizes: Vec<u32> = (0..10_000).map(|_| src.next(&mut rng).vsize).collect();
        let small = sizes.iter().filter(|&&s| s < 1024).count() as f64 / sizes.len() as f64;
        assert!(small > 0.85, "small fraction {small}");
        assert!(sizes.iter().any(|&s| s > 4096), "tail exists");
    }

    #[test]
    fn etc_keys_are_skewed() {
        let mut src = EtcSource::new(100_000);
        let mut rng = DetRng::seed(13);
        let hot = (0..20_000)
            .filter(|_| src.next(&mut rng).key < 1000)
            .count() as f64
            / 20_000.0;
        assert!(hot > 0.3, "hot-key fraction {hot}");
    }

    #[test]
    fn service_tracks_hits_and_misses() {
        let mut svc = KvService::new(100);
        let mut mem = GuestMemory::new(4096);
        let hit = ParsedRequest {
            send_ps: 0,
            key: 5,
            op: OP_GET,
            vsize: 0,
        };
        let miss = ParsedRequest {
            send_ps: 0,
            key: 999_999,
            op: OP_GET,
            vsize: 0,
        };
        let set = ParsedRequest {
            send_ps: 0,
            key: 999_999,
            op: OP_SET,
            vsize: 256,
        };
        let out = svc.serve(&hit, &mut mem);
        assert!(out.reply_len > 8);
        svc.serve(&miss, &mut mem);
        svc.serve(&set, &mut mem);
        // After the SET, the key hits.
        let out = svc.serve(&miss, &mut mem);
        assert_eq!(out.reply_len, 8 + 256);
        assert_eq!(svc.counters(), (2, 1, 1));
    }

    #[test]
    fn service_cost_scales_with_value_size() {
        let mut svc = KvService::new(0);
        let mut mem = GuestMemory::new(4096);
        svc.serve(
            &ParsedRequest {
                send_ps: 0,
                key: 1,
                op: OP_SET,
                vsize: 10_000,
            },
            &mut mem,
        );
        let big = svc.serve(
            &ParsedRequest {
                send_ps: 0,
                key: 1,
                op: OP_GET,
                vsize: 0,
            },
            &mut mem,
        );
        svc.serve(
            &ParsedRequest {
                send_ps: 0,
                key: 2,
                op: OP_SET,
                vsize: 10,
            },
            &mut mem,
        );
        let small = svc.serve(
            &ParsedRequest {
                send_ps: 0,
                key: 2,
                op: OP_GET,
                vsize: 0,
            },
            &mut mem,
        );
        assert!(big.compute > small.compute);
    }
}
