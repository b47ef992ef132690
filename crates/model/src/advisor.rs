//! The runtime algorithm Advisor.
//!
//! `recommend` prices every candidate algorithm for a workload with the
//! closed-form models and returns the cheapest, plus the runner-up and
//! the predicted margin — what a serving stack would consult per
//! request before committing to a schedule.
//!
//! Repeated queries are O(1): recommendations are memoized under a
//! [`DecisionKey`] quantized from the workload (machine size, message
//! size in packets, density/occupancy buckets). To guarantee the cache
//! can never change an answer, **both** the cached and uncached paths
//! quantize first and predict from the key's representative workload —
//! two workloads that share a key are indistinguishable to the models
//! by construction.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use crate::cost::{self, Algorithm, Workload};
use crate::stats::PatternStats;
use cm5_sim::{FatTree, MachineParams, SimDuration};

/// Occupancy/density quantization: 1/1024 resolution keeps the bucket
/// error far below the models' own residuals.
const FRAC_BINS: f64 = 1024.0;

/// What the advisor returns: the pick, how confident, and the full
/// price list.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The predicted-fastest algorithm.
    pub algorithm: Algorithm,
    /// Its predicted makespan.
    pub predicted: SimDuration,
    /// The second-fastest candidate, if more than one applied.
    pub runner_up: Option<Algorithm>,
    /// The runner-up's predicted makespan.
    pub runner_up_predicted: Option<SimDuration>,
    /// Relative margin `(runner_up − best) / best` (0.0 with no
    /// runner-up). Small margins mean the choice is a near-tie.
    pub margin: f64,
    /// Every applicable candidate with its prediction, fastest first.
    pub candidates: Vec<(Algorithm, SimDuration)>,
}

/// The memoization key: a workload quantized to the resolution the
/// cost models actually see.
///
/// Message sizes collapse to packet counts (lossless for every
/// bandwidth term — the wire moves whole 20-byte packets); fractions
/// (density, occupancy) collapse to 1/1024 bins; structural counts
/// (steps, degrees, pair counts) stay exact.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecisionKey {
    kind: WorkloadKind,
    n: usize,
    /// Per-pair (exchange), total (broadcast) or mean-entry (irregular)
    /// message size, in packets. Zero only for a zero-byte workload.
    packets: u64,
    /// Irregular-only discriminators (zeroed otherwise).
    density_bin: u32,
    nonzero_pairs: u32,
    exchange_pairs: u32,
    oneway_pairs: u32,
    max_pair_degree: u32,
    /// `max(max_out_degree, max_in_degree)` — the only form the models
    /// consume.
    max_dir_degree: u32,
    ps_steps: u32,
    bs_steps: u32,
    ps_occ_bin: u32,
    bs_occ_bin: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WorkloadKind {
    Exchange,
    Broadcast,
    Irregular,
}

impl DecisionKey {
    /// Quantize a workload.
    pub fn of(w: &Workload, params: &MachineParams) -> DecisionKey {
        let mut key = DecisionKey {
            kind: WorkloadKind::Exchange,
            n: w.nodes(),
            packets: 0,
            density_bin: 0,
            nonzero_pairs: 0,
            exchange_pairs: 0,
            oneway_pairs: 0,
            max_pair_degree: 0,
            max_dir_degree: 0,
            ps_steps: 0,
            bs_steps: 0,
            ps_occ_bin: 0,
            bs_occ_bin: 0,
        };
        match w {
            Workload::Exchange { bytes, .. } => {
                key.kind = WorkloadKind::Exchange;
                key.packets = params.packets(*bytes);
            }
            Workload::Broadcast { bytes, .. } => {
                key.kind = WorkloadKind::Broadcast;
                key.packets = params.packets(*bytes);
            }
            Workload::Irregular(s) => {
                key.kind = WorkloadKind::Irregular;
                key.packets = params.packets(s.avg_msg_bytes.ceil() as u64);
                key.density_bin = bin(s.density);
                key.nonzero_pairs = s.nonzero_pairs as u32;
                key.exchange_pairs = s.exchange_pairs as u32;
                key.oneway_pairs = s.oneway_pairs as u32;
                key.max_pair_degree = s.max_pair_degree as u32;
                key.max_dir_degree = s.max_out_degree.max(s.max_in_degree) as u32;
                key.ps_steps = s.ps_steps as u32;
                key.bs_steps = s.bs_steps as u32;
                key.ps_occ_bin = bin(s.ps_occupancy);
                key.bs_occ_bin = bin(s.bs_occupancy);
            }
        }
        key
    }

    /// The workload every member of this bucket is priced as.
    pub fn representative(&self, params: &MachineParams) -> Workload {
        let bytes = self.packets.saturating_mul(params.packet_payload);
        match self.kind {
            WorkloadKind::Exchange => Workload::Exchange { n: self.n, bytes },
            WorkloadKind::Broadcast => Workload::Broadcast { n: self.n, bytes },
            WorkloadKind::Irregular => Workload::Irregular(PatternStats {
                n: self.n,
                nonzero_pairs: self.nonzero_pairs as usize,
                density: unbin(self.density_bin),
                avg_msg_bytes: bytes as f64,
                max_msg_bytes: bytes,
                total_bytes: bytes.saturating_mul(self.nonzero_pairs as u64),
                exchange_pairs: self.exchange_pairs as usize,
                oneway_pairs: self.oneway_pairs as usize,
                max_out_degree: self.max_dir_degree as usize,
                max_in_degree: self.max_dir_degree as usize,
                max_pair_degree: self.max_pair_degree as usize,
                ps_steps: self.ps_steps as usize,
                ps_occupancy: unbin(self.ps_occ_bin),
                bs_steps: self.bs_steps as usize,
                bs_occupancy: unbin(self.bs_occ_bin),
                root_crossing_frac: 0.0,
            }),
        }
    }
}

fn bin(frac: f64) -> u32 {
    (frac.clamp(0.0, 1.0) * FRAC_BINS).round() as u32
}

fn unbin(b: u32) -> f64 {
    b as f64 / FRAC_BINS
}

/// Fingerprint of the machine configuration, so one advisor can serve
/// several parameter sets without cross-talk.
fn machine_fingerprint(params: &MachineParams, tree: &FatTree) -> u64 {
    let mut h = DefaultHasher::new();
    tree.nodes().hash(&mut h);
    for v in [
        params.leaf_bandwidth,
        params.software_bandwidth,
        params.level1_bandwidth,
        params.upper_bandwidth,
        params.system_bcast_bandwidth,
        params.memcpy_bandwidth,
    ] {
        v.to_bits().hash(&mut h);
    }
    for d in [
        params.send_overhead,
        params.recv_overhead,
        params.wire_latency,
        params.control_latency,
        params.system_bcast_overhead,
    ] {
        d.as_nanos().hash(&mut h);
    }
    (params.packet_payload, params.packet_wire).hash(&mut h);
    h.finish()
}

/// How one [`Advisor::recommend_traced`] call interacted with the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whether this query was served from the memo (see
    /// [`Advisor::recommend_traced`] for the concurrency caveat).
    pub hit: bool,
    /// Shard index the key routed to.
    pub shard: usize,
    /// Deterministic string form of the cache key (machine fingerprint +
    /// quantized decision key) — equal strings ⇔ equal cache entries.
    pub key: String,
}

/// Point-in-time statistics of one advisor cache shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Distinct decisions memoized in this shard.
    pub entries: usize,
    /// Queries routed to this shard (hits + misses). Key→shard routing is
    /// a pure hash, so this count is deterministic for a given query
    /// stream regardless of which threads issued the queries.
    pub queries: u64,
}

/// One shard of the decision cache: the memo map plus its query counter,
/// behind a single mutex so a query touches exactly one lock.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<(u64, DecisionKey), Recommendation>,
    queries: u64,
}

/// Memoizing algorithm selector. Cheap to create; intended to live for
/// the duration of a run and be shared (`&self` methods, interior
/// locking).
///
/// The decision cache is split into [`Advisor::shard_count`] shards keyed
/// by the hash of `(machine fingerprint, DecisionKey)`, so concurrent
/// workers contend only when their queries land in the same shard — there
/// is no global lock on the hot path. Sharding is invisible to answers:
/// every shard runs the same quantize-then-predict computation, so
/// recommendations are bit-identical for any shard count (asserted by
/// `tests/advisor_props.rs`).
#[derive(Debug)]
pub struct Advisor {
    shards: Vec<Mutex<Shard>>,
}

impl Default for Advisor {
    fn default() -> Advisor {
        Advisor::new()
    }
}

impl Advisor {
    /// A fresh advisor with a single-shard decision cache.
    pub fn new() -> Advisor {
        Advisor::with_shards(1)
    }

    /// A fresh advisor whose decision cache is split across `shards`
    /// mutexes (`shards ≥ 1`). Use roughly 2–4× the number of concurrent
    /// worker threads to make lock contention negligible.
    pub fn with_shards(shards: usize) -> Advisor {
        assert!(shards >= 1, "advisor needs at least one cache shard");
        Advisor {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    /// Number of cache shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a key routes to: a hash independent of the map's own
    /// (keys cluster by workload family in `DecisionKey`'s derived hash
    /// inputs, but `DefaultHasher` mixes well enough for routing).
    fn shard_of(&self, fp: u64, key: &DecisionKey) -> usize {
        let mut h = DefaultHasher::new();
        fp.hash(&mut h);
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Recommend an algorithm for `workload`, memoized.
    pub fn recommend(
        &self,
        workload: &Workload,
        params: &MachineParams,
        tree: &FatTree,
    ) -> Recommendation {
        self.recommend_traced(workload, params, tree).0
    }

    /// [`Advisor::recommend`] plus the cache outcome, for telemetry.
    ///
    /// The recommendation is bit-identical to the untraced form; the
    /// [`CacheOutcome`] reports which shard served the query, whether it
    /// hit, and the cache key's deterministic string form (note the hit
    /// flag itself is interleaving-dependent under concurrency — two
    /// threads racing on a cold key both see a miss — so exporters that
    /// need worker-count-independent output re-derive hit/miss from the
    /// key stream instead).
    pub fn recommend_traced(
        &self,
        workload: &Workload,
        params: &MachineParams,
        tree: &FatTree,
    ) -> (Recommendation, CacheOutcome) {
        let key = DecisionKey::of(workload, params);
        let fp = machine_fingerprint(params, tree);
        let idx = self.shard_of(fp, &key);
        let key_string = format!("{fp:016x}|{key:?}");
        let outcome = move |hit| CacheOutcome {
            hit,
            shard: idx,
            key: key_string,
        };
        {
            let mut shard = self.shards[idx].lock().expect("advisor cache poisoned");
            shard.queries += 1;
            if let Some(hit) = shard.map.get(&(fp, key.clone())) {
                return (hit.clone(), outcome(true));
            }
        }
        // Compute outside the lock: two threads racing on the same cold key
        // both run the identical pure computation and insert equal values,
        // so the cache contents stay deterministic.
        let rec = Self::recommend_uncached(workload, params, tree);
        let mut shard = self.shards[idx].lock().expect("advisor cache poisoned");
        shard.map.insert((fp, key), rec.clone());
        (rec, outcome(false))
    }

    /// The issue-facing convenience form: recommend a scheduler for an
    /// irregular pattern described by its statistics.
    pub fn recommend_pattern(
        &self,
        stats: &PatternStats,
        params: &MachineParams,
        tree: &FatTree,
    ) -> Recommendation {
        self.recommend(&Workload::Irregular(stats.clone()), params, tree)
    }

    /// The same computation with no cache involved. Both paths quantize
    /// the workload first, so this returns bit-identical results to
    /// [`Advisor::recommend`] — asserted by the determinism proptests.
    pub fn recommend_uncached(
        workload: &Workload,
        params: &MachineParams,
        tree: &FatTree,
    ) -> Recommendation {
        let key = DecisionKey::of(workload, params);
        let rep = key.representative(params);
        let mut candidates: Vec<(Algorithm, SimDuration)> = rep
            .candidates()
            .into_iter()
            .filter_map(|alg| cost::predict(alg, &rep, params, tree).map(|d| (alg, d)))
            .collect();
        assert!(
            !candidates.is_empty(),
            "no model applies to workload {workload:?}"
        );
        // Deterministic order: by predicted time, candidate order as
        // the tie-break (the candidate list itself is fixed).
        candidates.sort_by_key(|&(_, d)| d.as_nanos());
        let (algorithm, predicted) = candidates[0];
        let runner = candidates.get(1).copied();
        let margin = match runner {
            Some((_, d)) if predicted.as_nanos() > 0 => {
                (d.as_nanos() as f64 - predicted.as_nanos() as f64) / predicted.as_nanos() as f64
            }
            _ => 0.0,
        };
        Recommendation {
            algorithm,
            predicted,
            runner_up: runner.map(|(a, _)| a),
            runner_up_predicted: runner.map(|(_, d)| d),
            margin,
            candidates,
        }
    }

    /// Number of distinct decisions currently memoized (summed over
    /// shards).
    pub fn cache_len(&self) -> usize {
        self.shard_stats().iter().map(|s| s.entries).sum()
    }

    /// Total queries answered (hits + misses, summed over shards).
    pub fn cache_queries(&self) -> u64 {
        self.shard_stats().iter().map(|s| s.queries).sum()
    }

    /// Per-shard cache statistics, in shard order. Both fields are
    /// deterministic functions of the query multiset: entry counts because
    /// the key→shard routing is a pure hash, query counts because every
    /// query increments exactly its key's shard.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock().expect("advisor cache poisoned");
                ShardStats {
                    entries: s.map.len(),
                    queries: s.queries,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm5_core::{ExchangeAlg, Pattern};

    fn m32() -> (MachineParams, FatTree) {
        (MachineParams::cm5_1992(), FatTree::new(32))
    }

    #[test]
    fn exchange_recommendations_match_the_decision_table() {
        let (p, t) = m32();
        let adv = Advisor::new();
        // 0 B on 32 nodes: REX (lg n steps of pure latency).
        let r = adv.recommend(&Workload::Exchange { n: 32, bytes: 0 }, &p, &t);
        assert_eq!(r.algorithm, Algorithm::Exchange(ExchangeAlg::Rex));
        // Large messages on 32 nodes: BEX.
        let r = adv.recommend(&Workload::Exchange { n: 32, bytes: 1920 }, &p, &t);
        assert_eq!(r.algorithm, Algorithm::Exchange(ExchangeAlg::Bex));
        assert_eq!(r.candidates.len(), 4);
        assert!(r.margin > 0.0);
    }

    #[test]
    fn cache_hits_return_identical_answers() {
        let (p, t) = m32();
        let adv = Advisor::new();
        let w = Workload::Exchange { n: 32, bytes: 512 };
        let first = adv.recommend(&w, &p, &t);
        assert_eq!(adv.cache_len(), 1);
        let second = adv.recommend(&w, &p, &t);
        assert_eq!(adv.cache_len(), 1, "second query must hit the cache");
        assert_eq!(first, second);
        let uncached = Advisor::recommend_uncached(&w, &p, &t);
        assert_eq!(first, uncached);
    }

    #[test]
    fn message_sizes_in_the_same_packet_bucket_share_a_decision() {
        let (p, t) = m32();
        let adv = Advisor::new();
        // 250 and 256 bytes are both 16 packets.
        let a = adv.recommend(&Workload::Exchange { n: 32, bytes: 250 }, &p, &t);
        let b = adv.recommend(&Workload::Exchange { n: 32, bytes: 256 }, &p, &t);
        assert_eq!(adv.cache_len(), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn different_machines_do_not_share_cache_entries() {
        let (p, t) = m32();
        let adv = Advisor::new();
        let w = Workload::Broadcast { n: 32, bytes: 256 };
        let a = adv.recommend(&w, &p, &t);
        let mut p2 = p.clone();
        p2.system_bcast_bandwidth *= 10.0;
        let b = adv.recommend(&w, &p2, &t);
        assert_eq!(adv.cache_len(), 2);
        assert!(a.candidates != b.candidates);
    }

    #[test]
    fn sharded_caches_agree_with_the_single_shard() {
        let (p, t) = m32();
        for shards in [2usize, 3, 8, 64] {
            let baseline = Advisor::new();
            let adv = Advisor::with_shards(shards);
            assert_eq!(adv.shard_count(), shards);
            for bytes in [0u64, 64, 256, 1920, 4096] {
                let w = Workload::Exchange { n: 32, bytes };
                assert_eq!(adv.recommend(&w, &p, &t), baseline.recommend(&w, &p, &t));
                // Ask twice: the second answer must come from the cache.
                assert_eq!(adv.recommend(&w, &p, &t), baseline.recommend(&w, &p, &t));
            }
            let stats = adv.shard_stats();
            assert_eq!(stats.len(), shards);
            assert_eq!(
                stats.iter().map(|s| s.entries).sum::<usize>(),
                adv.cache_len()
            );
            assert_eq!(adv.cache_len(), baseline.cache_len());
            assert_eq!(adv.cache_queries(), baseline.cache_queries());
        }
    }

    #[test]
    #[should_panic(expected = "at least one cache shard")]
    fn zero_shards_is_rejected() {
        Advisor::with_shards(0);
    }

    #[test]
    fn pattern_recommendation_runs() {
        let (p, t) = m32();
        let adv = Advisor::new();
        let pat = Pattern::seeded_random(32, 0.25, 256, 7);
        let stats = PatternStats::of(&pat, &t);
        let r = adv.recommend_pattern(&stats, &p, &t);
        assert_eq!(r.candidates.len(), 4);
    }
}
