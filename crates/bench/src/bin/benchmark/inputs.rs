//! Workload definitions and seeded input generation.
//!
//! Everything the facility is fed — items, documents, fetch order,
//! query mix — is generated here, once per process, from `--seed`; the
//! program under test receives only these inputs. The generator also
//! keeps what it needs to judge the outputs: which items belong to
//! which acquisition group and how many of them a query must return.

use std::ops::Range;

use bytes::Bytes;

use lsdf_metadata::query::{eq, ge};
use lsdf_metadata::{
    zebrafish_schema, Document, FieldType, Predicate, Schema, SchemaBuilder, Value,
};
use lsdf_workloads::microscopy::HtmGenerator;

/// End-to-end fetches, and range queries ("since time T"), go to the
/// most recent this-many items, the recency skew DataBrowser users
/// show. Over the whole 48k-item catalog both are DRAM-bound and moved
/// with the host's memory state, not the code: grouped fetches read
/// 661k to 775k per second across four sweeps of identical code, and an
/// open range over half the catalog (24k ids per query, nine tenths of
/// query time) moved `query_ops_per_s` by 10% between identical runs.
/// The whole-catalog forms are the per-layer `adal.get_cold_ns_per_item`
/// and `metadata.query_and_range_us`.
pub const RECENT_WINDOW: usize = 4_096;
/// The operator's background sweep runs after every this many batches.
pub const SWEEP_EVERY: usize = 16;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "htm_bulk",
        "1 MiB microscopy images: bytes dominate, SHA-256 and Payload do the ingest work and the catalog fits in cache",
    ),
    (
        "daq_events",
        "48k DAQ items of 512 B: items dominate, admission, ADAL, catalog indexes and the WAL do the work, catalog exceeds cache",
    ),
    (
        "dfs_analysis",
        "4 MiB files on the replicated DFS: the only path where reads copy bytes and writes pay placement and the namenode WAL",
    ),
    (
        "browse_during_ingest",
        "daq_events items with one writer and one reader at once: catalog inserts and reads contend for the same locks",
    ),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    ObjectStore,
    Dfs,
}

/// Length of the run the repetition counts below are sized for; a run
/// of another `--seconds` gets them in proportion. On the build host,
/// when it is quiet, they take 18 to 23 s from the start of the process:
/// the rest is what a slower hour may use before the run's budget starts
/// to drop repetitions.
pub const NOMINAL_SECONDS: f64 = 28.0;

/// One workload's shape. Sizes are chosen so a repetition takes 1–2 s
/// on the 2-vCPU build host.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// The tenant project, named by its schema.
    pub project: &'static str,
    /// The indexed field naming an item's acquisition group, and the
    /// indexed time field.
    pub group_field: &'static str,
    pub time_field: &'static str,
    pub backend: Backend,
    /// Items ingested in the timed ingest phase.
    pub items: usize,
    pub item_bytes: usize,
    /// Items per `ingest_batch` call.
    pub batch: usize,
    /// Items per acquisition group (a fish, a run, a volume).
    pub group: usize,
    /// Batches ingested during set-up, before any timed phase.
    pub preload_batches: usize,
    /// A writer and a reader run in barrier-aligned segments of this
    /// many batches; `None` runs one thread, phase after phase.
    pub concurrent_batches: Option<usize>,
    pub get_segments: usize,
    pub gets_per_segment: usize,
    pub query_segments: usize,
    pub queries_per_segment: usize,
    /// Recovery segments per repetition, and `crash_restart` calls in
    /// each: a restart that replays a few hundred records takes well
    /// under a millisecond, too short to time alone.
    pub recoveries: usize,
    pub restarts_per_segment: usize,
    /// Repetitions of the end-to-end script in a run of
    /// [`NOMINAL_SECONDS`]. Fixed here, not fitted to the time left: the
    /// estimator is a minimum over repetitions, so its value depends on
    /// their number, and a somewhat slower host or change under test
    /// must not get fewer. (One several times slower does: the run's
    /// budget ends it before whoever started it gives up on it.)
    pub reps: usize,
    /// Batches the per-layer run replays into each layer's twin, and
    /// its passes in a run of [`NOMINAL_SECONDS`].
    pub ladder_batches: usize,
    pub ladder_passes: usize,
    /// DFS block size (the DFS is built for every workload; only
    /// `Backend::Dfs` stores items on it).
    pub dfs_block: u64,
}

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        let daq = Spec {
            name: "daq_events",
            project: "katrin-daq",
            group_field: "run_id",
            time_field: "t_start",
            backend: Backend::ObjectStore,
            items: 48_000,
            item_bytes: 512,
            batch: 480,
            group: 24,
            preload_batches: 0,
            concurrent_batches: None,
            get_segments: 40,
            gets_per_segment: 2_500,
            query_segments: 40,
            queries_per_segment: 200,
            recoveries: 4,
            restarts_per_segment: 1,
            reps: 8,
            ladder_batches: 40,
            ladder_passes: 8,
            dfs_block: 1 << 20,
        };
        Some(match name {
            "htm_bulk" => Spec {
                name: "htm_bulk",
                project: "zebrafish-htm",
                group_field: "fish_id",
                time_field: "acquired_at",
                items: 264,
                item_bytes: (1 << 20) + 16,
                batch: 12,
                recoveries: 4,
                restarts_per_segment: 8,
                reps: 15,
                ladder_batches: 8,
                ladder_passes: 7,
                ..daq
            },
            "daq_events" => daq,
            "dfs_analysis" => Spec {
                name: "dfs_analysis",
                project: "analysis",
                group_field: "volume_id",
                backend: Backend::Dfs,
                items: 66,
                item_bytes: 4 << 20,
                batch: 3,
                group: 6,
                get_segments: 22,
                gets_per_segment: 12,
                recoveries: 4,
                restarts_per_segment: 16,
                reps: 14,
                ladder_batches: 8,
                ladder_passes: 7,
                ..daq
            },
            "browse_during_ingest" => Spec {
                name: "browse_during_ingest",
                items: 28_800,
                preload_batches: 40,
                // One batch per segment, so every batch starts with the
                // reader's segment and meets the same contention. Every
                // reader segment runs both kinds of read; their sum is
                // sized to last about as long as the writer's batch.
                concurrent_batches: Some(1),
                get_segments: 60,
                gets_per_segment: 1_250,
                query_segments: 60,
                queries_per_segment: 100,
                // The same restart `daq_events` times four times over,
                // and a third of a repetition: one, so that the
                // concurrent phase gets more repetitions.
                recoveries: 1,
                reps: 12,
                ladder_batches: 20,
                ladder_passes: 15,
                ..daq
            },
            _ => return None,
        })
    }

    /// The same shape at sizes a debug build finishes in seconds.
    pub fn smoke(mut self) -> Spec {
        // Two reader segments either way: the concurrent workload has
        // one per `concurrent_batches` batches.
        let batches = 2 * self.concurrent_batches.unwrap_or(3);
        self.batch = self.batch.min(2 * self.group);
        self.items = self.batch * batches;
        self.item_bytes = self.item_bytes.min(4096 + 16);
        self.preload_batches = self.preload_batches.min(2);
        self.get_segments = 2;
        self.gets_per_segment = self.gets_per_segment.min(200);
        self.query_segments = 2;
        self.queries_per_segment = 50;
        self.recoveries = 1;
        self.restarts_per_segment = self.restarts_per_segment.min(2);
        self.reps = 2;
        self.ladder_batches = 3;
        self.ladder_passes = 2;
        self.dfs_block = 1024;
        self
    }

    pub fn schema(&self) -> Schema {
        if self.name == "htm_bulk" {
            return zebrafish_schema();
        }
        SchemaBuilder::new(self.project)
            .required(self.group_field, FieldType::Int)
            .indexed()
            .required(self.time_field, FieldType::Time)
            .indexed()
            .required("n_events", FieldType::Int)
            .required("detector", FieldType::Str)
            .build()
            .expect("benchmark schema has unique field names")
    }

    pub fn total_items(&self) -> usize {
        self.items + self.preload_batches * self.batch
    }

    pub fn batches(&self) -> usize {
        self.items / self.batch
    }
}

/// splitmix64: the benchmark's own generator, so inputs do not depend
/// on which `rand` the program under test is built against.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift; the bias is < 2^-32 for the sizes used here.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

pub struct Item {
    pub key: String,
    pub data: Bytes,
    pub doc: Document,
}

/// One acquisition group: a contiguous run of items.
pub struct Group {
    pub value: i64,
    pub members: Range<usize>,
    /// Time of the group's middle member: the range query's lower bound.
    pub t_mid: i64,
}

pub struct Query {
    pub pred: Predicate,
    pub group: u32,
    /// The range form returns the group's later half.
    pub ranged: bool,
}

impl Query {
    /// Indices of the items this query must return, in id order.
    pub fn expected(&self, inputs: &Inputs) -> Range<usize> {
        let g = &inputs.groups[self.group as usize];
        if self.ranged {
            g.members.start + g.members.len() / 2..g.members.end
        } else {
            g.members.clone()
        }
    }
}

pub struct Inputs {
    pub spec: Spec,
    pub seed: u64,
    /// Preloaded items first, then the timed ingest's, in ingest order.
    pub items: Vec<Item>,
    pub groups: Vec<Group>,
    /// Item indices to fetch, `get_segments` segments back to back.
    pub gets: Vec<u32>,
    pub queries: Vec<Query>,
    /// Seconds spent generating all of the above.
    pub generate_s: f64,
}

impl Inputs {
    pub fn generate(spec: Spec, seed: u64) -> Inputs {
        let started = std::time::Instant::now();
        let mut rng = Rng::new(seed ^ 0x4C53_4446);
        let total = spec.total_items();
        assert!(total.is_multiple_of(spec.group), "groups are whole");
        let items = match spec.name {
            "htm_bulk" => htm_items(&spec, seed, &mut rng),
            _ => run_items(&spec, &mut rng),
        };
        let groups: Vec<Group> = (0..total / spec.group)
            .map(|g| {
                let members = g * spec.group..(g + 1) * spec.group;
                let mid = &items[members.start + spec.group / 2];
                let Some(Value::Int(value)) = mid.doc.get(spec.group_field) else {
                    unreachable!("generated documents carry the group field")
                };
                let Some(Value::Time(t_mid)) = mid.doc.get(spec.time_field) else {
                    unreachable!("generated documents carry the time field")
                };
                Group {
                    value: *value,
                    members,
                    t_mid: *t_mid,
                }
            })
            .collect();

        // The reader may only touch what is there when it runs: for the
        // concurrent workload that is the preloaded part.
        let readable_items = if spec.concurrent_batches.is_some() {
            spec.preload_batches * spec.batch
        } else {
            total
        };
        let readable_groups = readable_items / spec.group;
        assert!(readable_groups > 0, "nothing to read");
        let recent_groups = (RECENT_WINDOW / spec.group).clamp(1, readable_groups);
        let gets = plan_gets(
            &groups,
            readable_groups - recent_groups..readable_groups,
            spec.get_segments * spec.gets_per_segment,
            &mut rng,
        );
        let queries = plan_queries(
            &spec,
            &groups,
            0..readable_groups,
            recent_groups,
            spec.query_segments * spec.queries_per_segment,
            &mut rng,
        );

        Inputs {
            spec,
            seed,
            items,
            groups,
            gets,
            queries,
            generate_s: started.elapsed().as_secs_f64(),
        }
    }

    /// The items of global batch `gb` (preloaded batches come first).
    pub fn batch(&self, gb: usize) -> Range<usize> {
        gb * self.spec.batch..(gb + 1) * self.spec.batch
    }

    /// Segment `seg` of the fetch plan.
    pub fn get_segment(&self, seg: usize) -> &[u32] {
        let n = self.spec.gets_per_segment;
        &self.gets[seg * n..(seg + 1) * n]
    }

    /// Segment `seg` of the query plan.
    pub fn query_segment(&self, seg: usize) -> &[Query] {
        let n = self.spec.queries_per_segment;
        &self.queries[seg * n..(seg + 1) * n]
    }

    pub fn payload_bytes(&self, items: Range<usize>) -> u64 {
        self.items[items].iter().map(|i| i.data.len() as u64).sum()
    }
}

/// `n` item indices to fetch: one acquisition group at a time (the 24
/// images of a fish, the sub-runs of a run), groups `among` in seeded
/// order, again and again until there are enough.
pub fn plan_gets(groups: &[Group], among: Range<usize>, n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut gets = Vec::with_capacity(n + groups[among.start].members.len());
    let mut order: Vec<usize> = among.collect();
    while gets.len() < n {
        rng.shuffle(&mut order);
        for &g in &order {
            gets.extend(groups[g].members.clone().map(|i| i as u32));
            if gets.len() >= n {
                break;
            }
        }
    }
    gets.truncate(n);
    gets
}

/// `n` index-assisted queries with small results over groups `among`:
/// 85% `eq` on the group field (one fish or run), 15% that `eq` and a
/// lower bound on the time field (the group's later half).
///
/// The mix is exact, not drawn: every block of 20 queries holds 3 of
/// the range form, and the groups those ask about are spread evenly
/// over the `recent` last groups of `among`. An open range on the time
/// field costs in proportion to the records after its bound, so a drawn
/// mix would make the work — and the metric — depend on the seed by
/// several percent.
pub fn plan_queries(
    spec: &Spec,
    groups: &[Group],
    among: Range<usize>,
    recent: usize,
    n: usize,
    rng: &mut Rng,
) -> Vec<Query> {
    const BLOCK: usize = 20;
    const RANGED_PER_BLOCK: usize = 3;
    let (group_field, time_field) = (spec.group_field, spec.time_field);
    let n_ranged = n.div_ceil(BLOCK) * RANGED_PER_BLOCK;
    let offset = rng.below(1 << 20) as f64 / (1 << 20) as f64;
    let recent = recent.clamp(1, among.len());
    let mut ranged_groups: Vec<usize> = (0..n_ranged)
        .map(|j| {
            among.end - recent + ((j as f64 + offset) / n_ranged as f64 * recent as f64) as usize
        })
        .collect();
    rng.shuffle(&mut ranged_groups);
    let mut queries = Vec::with_capacity(n + BLOCK);
    while queries.len() < n {
        let mut block = [false; BLOCK];
        block[..RANGED_PER_BLOCK].fill(true);
        rng.shuffle(&mut block);
        for ranged in block {
            let g = match ranged {
                true => ranged_groups.pop().expect("one per ranged slot"),
                false => among.start + rng.below(among.len() as u64) as usize,
            };
            let mut pred = eq(group_field, groups[g].value);
            if ranged {
                pred = pred.and(ge(time_field, Value::Time(groups[g].t_mid)));
            }
            queries.push(Query {
                pred,
                group: g as u32,
                ranged,
            });
        }
    }
    queries.truncate(n);
    queries
}

/// Zebrafish microscopy: acquisition documents and keys from
/// `HtmGenerator`; pixels from a rendered pool, tiled up to the item
/// size and stamped with a per-item nonce so no two payloads (and no
/// two digests) are equal.
fn htm_items(spec: &Spec, seed: u64, rng: &mut Rng) -> Vec<Item> {
    const POOL_EDGE: u32 = 256;
    let pool: Vec<Vec<u8>> = HtmGenerator::new(seed, POOL_EDGE)
        .next_fish()
        .into_iter()
        .map(|(_, img)| img.pixels)
        .collect();
    let pixels = spec.item_bytes - 16;
    let edge = (pixels as f64).sqrt() as u32;
    assert_eq!(
        (edge * edge) as usize,
        pixels,
        "htm items are square images"
    );
    let mut acquisitions = HtmGenerator::new(seed ^ 1, 8);
    let mut items = Vec::with_capacity(spec.total_items());
    while items.len() < spec.total_items() {
        for (acq, _) in acquisitions.next_fish() {
            let tile = &pool[items.len() % pool.len()];
            let mut data = Vec::with_capacity(spec.item_bytes);
            data.extend_from_slice(b"LSDFIMG1");
            data.extend_from_slice(&edge.to_le_bytes());
            data.extend_from_slice(&edge.to_le_bytes());
            while data.len() < spec.item_bytes {
                let take = tile.len().min(spec.item_bytes - data.len());
                data.extend_from_slice(&tile[..take]);
            }
            let nonce = rng.next_u64().to_le_bytes();
            for (d, n) in data[16..24].iter_mut().zip(nonce) {
                *d ^= n;
            }
            data[24..32].copy_from_slice(&(items.len() as u64).to_le_bytes());
            items.push(Item {
                key: acq.key(),
                data: Bytes::from(data),
                doc: acq.document(),
            });
        }
    }
    items
}

/// DAQ sub-runs and analysis volumes: seeded bytes under a
/// benchmark-defined schema (group id, start time, event count,
/// detector name).
fn run_items(spec: &Spec, rng: &mut Rng) -> Vec<Item> {
    let (group_field, time_field) = (spec.group_field, spec.time_field);
    let stem = if spec.backend == Backend::Dfs {
        "vol"
    } else {
        "run"
    };
    // Bulk bytes come from a pool; each item gets a fresh 64-byte head,
    // which is enough to make every payload distinct.
    let mut pool = vec![0u8; spec.item_bytes.max(1 << 16)];
    rng.fill(&mut pool);
    let mut t = 1_600_000_000_000_000_000i64;
    (0..spec.total_items())
        .map(|i| {
            let (g, sub) = (i / spec.group, i % spec.group);
            let mut data = vec![0u8; spec.item_bytes];
            let offset = rng.below((pool.len() - spec.item_bytes) as u64 + 1) as usize;
            data.copy_from_slice(&pool[offset..offset + spec.item_bytes]);
            let head = spec.item_bytes.min(64);
            rng.fill(&mut data[..head]);
            data[..8].copy_from_slice(&(i as u64).to_le_bytes());
            t += 1_000_000 + rng.below(1_000_000) as i64;
            let doc: Document = [
                (group_field.to_string(), Value::Int(10_000 + g as i64)),
                (time_field.to_string(), Value::Time(t)),
                (
                    "n_events".to_string(),
                    Value::Int((spec.item_bytes / 18) as i64),
                ),
                (
                    "detector".to_string(),
                    Value::Str(format!("fpd-{}", rng.below(148))),
                ),
            ]
            .into_iter()
            .collect();
            Item {
                key: format!("{stem}{g:06}/sub{sub:02}"),
                data: Bytes::from(data),
                doc,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str) -> Inputs {
        Inputs::generate(Spec::named(name).unwrap().smoke(), 11)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for (name, _) in WORKLOADS {
            let (a, b, c) = (
                small(name),
                small(name),
                Inputs::generate(Spec::named(name).unwrap().smoke(), 12),
            );
            assert_eq!(a.gets, b.gets);
            assert!(a
                .items
                .iter()
                .zip(&b.items)
                .all(|(x, y)| x.data == y.data && x.doc == y.doc));
            assert!(a.items.iter().zip(&c.items).any(|(x, y)| x.data != y.data));
        }
    }

    #[test]
    fn payloads_are_distinct_and_documents_validate() {
        for (name, _) in WORKLOADS {
            let inputs = small(name);
            let schema = inputs.spec.schema();
            let mut seen = std::collections::HashSet::new();
            for item in &inputs.items {
                assert_eq!(item.data.len(), inputs.spec.item_bytes);
                assert!(seen.insert(item.data.clone()), "{name}: duplicate payload");
                schema.validate(&item.doc).unwrap();
            }
            let keys: std::collections::HashSet<_> = inputs.items.iter().map(|i| &i.key).collect();
            assert_eq!(keys.len(), inputs.items.len(), "{name}: duplicate key");
        }
    }

    #[test]
    fn query_oracle_matches_a_linear_scan() {
        for (name, _) in WORKLOADS {
            let inputs = small(name);
            assert!(inputs.queries.iter().any(|q| q.ranged) || inputs.queries.len() < 20);
            let (group_field, time_field) = (inputs.spec.group_field, inputs.spec.time_field);
            for q in &inputs.queries {
                let g = &inputs.groups[q.group as usize];
                let scan: Vec<usize> = (0..inputs.items.len())
                    .filter(|&i| {
                        let d = &inputs.items[i].doc;
                        d.get(group_field) == Some(&Value::Int(g.value))
                            && (!q.ranged
                                || matches!(d.get(time_field), Some(Value::Time(t)) if *t >= g.t_mid))
                    })
                    .collect();
                assert_eq!(scan, q.expected(&inputs).collect::<Vec<_>>(), "{name}");
            }
        }
    }

    #[test]
    fn concurrent_reader_touches_only_preloaded_items() {
        let inputs = small("browse_during_ingest");
        let preloaded = inputs.spec.preload_batches * inputs.spec.batch;
        assert!(inputs.gets.iter().all(|&i| (i as usize) < preloaded));
        assert!(inputs
            .queries
            .iter()
            .all(|q| inputs.groups[q.group as usize].members.end <= preloaded));
    }
}
