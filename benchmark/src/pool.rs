//! Seeded inputs: the request pool and each client's request schedule.
//!
//! Everything the program under test sees is generated here from `--seed`:
//! which wire format each object travels in, where malformed bodies are
//! damaged, and the order requests are issued in. The same seed gives the
//! same pool and the same schedules; the program receives only the
//! generated requests.

use std::sync::Arc;

use bytes::Bytes;
use k8s_apiserver::{ApiRequest, RequestBody};
use k8s_model::{K8sObject, ResourceKind};
use kf_attacks::AttackExecutor;
use kf_workloads::{DeploymentDriver, MixRatio, Operator};
use kf_yaml::{BodyFormat, Value};
use kubefence::ValidatorSet;

/// SplitMix64: the benchmark's own generator, so its inputs do not move when
/// the repository's `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What a request is and therefore what must come back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A legitimate apply: expect 2xx.
    Create,
    /// A read of one seeded object: expect 200 and the object.
    Get,
    /// A collection read: expect 200 and the collection.
    List,
    /// An attack-catalog manifest: expect 403 from the proxy.
    Attack,
    /// A truncated or corrupted body: expect 403 from the proxy.
    Malformed,
}

impl Class {
    /// Whether the proxy must refuse the request.
    pub fn hostile(self) -> bool {
        matches!(self, Class::Attack | Class::Malformed)
    }
}

/// One pool entry.
#[derive(Debug, Clone)]
pub struct PoolRequest {
    /// The request as the client sends it.
    pub request: ApiRequest,
    /// Its class.
    pub class: Class,
    /// Wire format: of the body for writes, of the rendered response for
    /// reads.
    pub format: BodyFormat,
    /// Index into [`Pool::objects`] for creates and gets.
    pub object: Option<u32>,
}

/// One object the store is seeded with.
#[derive(Debug, Clone)]
pub struct SeedObject {
    /// The object as the store holds it after admission (namespace
    /// defaulted) — what a get must return.
    pub object: K8sObject,
    /// Which client owns the key: only that client writes and reads it, so
    /// "the last applied object" is well defined under two clients.
    pub owner: usize,
}

/// The traffic shape of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// A create : get : list mix with one request in `attack_every`
    /// replaced by an attack-catalog manifest (`0`: none).
    Mix {
        /// The mix.
        mix: MixRatio,
        /// Attack share denominator.
        attack_every: usize,
    },
    /// All hostile: three attack manifests to one malformed body.
    Hostile,
}

/// The seeded request pool of one workload.
#[derive(Debug)]
pub struct Pool {
    /// Every request, grouped by class; schedules index into this.
    pub requests: Vec<PoolRequest>,
    /// The objects the store is seeded with: every chart object, then its
    /// replicas.
    pub objects: Vec<SeedObject>,
    /// The watched/listed collections: (user, kind, namespace).
    pub targets: Vec<(String, ResourceKind, String)>,
    creates: Vec<u32>,
    gets: Vec<u32>,
    lists: Vec<u32>,
    attacks: Vec<u32>,
    malformed: Vec<u32>,
}

/// Mix cycles per client schedule; schedules wrap around.
const SCHEDULE_CYCLES: usize = 512;

fn serialize(body: &Value, format: BodyFormat) -> String {
    match format {
        BodyFormat::Json => kf_yaml::to_json(body),
        _ => kf_yaml::to_yaml(body),
    }
}

fn content_type(format: BodyFormat) -> &'static str {
    match format {
        BodyFormat::Json => "application/json",
        _ => "application/yaml",
    }
}

fn raw_create(
    user: &str,
    namespace: &str,
    object: &K8sObject,
    text: String,
    format: BodyFormat,
) -> ApiRequest {
    let mut request = ApiRequest::create(user, object);
    if object.kind().is_namespaced() {
        request.namespace = namespace.to_owned();
    }
    request.body = RequestBody::Raw(Bytes::from(text), format);
    request.content_type = Some(content_type(format).to_owned());
    request
}

/// Damage `text` at a seeded offset until the reference validator refuses
/// it: a truncation (even draws) or a structural break (odd draws). Some
/// cuts leave a smaller but still admissible document, hence the check —
/// the workloads must hold no request whose refusal is a matter of luck.
fn corrupt(text: &str, format: BodyFormat, set: &ValidatorSet, rng: &mut Rng) -> String {
    for _ in 0..64 {
        let mut at = text.len() / 4 + rng.below(text.len() / 2);
        while !text.is_char_boundary(at) {
            at += 1;
        }
        let damaged = if rng.below(2) == 0 {
            text[..at].to_owned()
        } else {
            let junk = match format {
                BodyFormat::Json => "}{\"",
                _ => "\n   : - [\n",
            };
            format!("{}{junk}{}", &text[..at], &text[at..])
        };
        if !set.validate_raw_tree_format(&damaged, format).is_admitted() {
            return damaged;
        }
    }
    // Two documents in one body are refused in either format.
    match format {
        BodyFormat::Json => format!("{text}{text}"),
        _ => format!("{text}---\n{text}"),
    }
}

impl Pool {
    /// Build the pool for `clients` clients, each chart object replicated
    /// `replicas` times in the seeded store.
    pub fn build(seed: u64, clients: usize, replicas: usize, set: &ValidatorSet) -> Pool {
        assert!(clients > 0 && replicas > 0);
        let mut rng = Rng::new(seed);
        let name_path = kf_yaml::Path::parse("metadata.name").expect("static path");
        let namespace_path = kf_yaml::Path::parse("metadata.namespace").expect("static path");

        struct ChartObject {
            operator: Operator,
            object: K8sObject,
            namespace: String,
        }
        let mut chart_objects = Vec::new();
        let mut targets: Vec<(String, ResourceKind, String)> = Vec::new();
        for operator in Operator::ALL {
            for object in DeploymentDriver::new(operator).objects() {
                let namespace = if object.kind().is_namespaced() {
                    operator.namespace().to_owned()
                } else {
                    String::new()
                };
                let target = (operator.user(), object.kind(), namespace.clone());
                if !targets.contains(&target) {
                    targets.push(target);
                }
                chart_objects.push(ChartObject {
                    operator,
                    object: object.clone(),
                    namespace,
                });
            }
        }

        // Half the objects travel as YAML, half as JSON; the seed says which.
        let mut formats: Vec<BodyFormat> = (0..chart_objects.len())
            .map(|i| {
                if i.is_multiple_of(2) {
                    BodyFormat::Yaml
                } else {
                    BodyFormat::Json
                }
            })
            .collect();
        rng.shuffle(&mut formats);

        let mut pool = Pool {
            requests: Vec::new(),
            objects: Vec::new(),
            targets,
            creates: Vec::new(),
            gets: Vec::new(),
            lists: Vec::new(),
            attacks: Vec::new(),
            malformed: Vec::new(),
        };

        // Seeded store contents, replica 0 (the chart object itself) first
        // so object index == chart index for the writable keys.
        for replica in 0..replicas {
            for (index, chart) in chart_objects.iter().enumerate() {
                let mut stored = chart.object.clone();
                if replica > 0 {
                    stored
                        .set_field(
                            &name_path,
                            Value::from(format!("{}-{replica}", chart.object.name()).as_str()),
                        )
                        .expect("chart objects carry a metadata mapping");
                }
                if stored.kind().is_namespaced() && stored.namespace().is_empty() {
                    stored
                        .set_field(&namespace_path, Value::from(chart.namespace.as_str()))
                        .expect("chart objects carry a metadata mapping");
                }
                pool.objects.push(SeedObject {
                    object: stored,
                    owner: index % clients,
                });
            }
        }

        for (index, chart) in chart_objects.iter().enumerate() {
            let user = chart.operator.user();
            let format = formats[index];
            let text = serialize(chart.object.body(), format);
            pool.malformed.push(pool.requests.len() as u32);
            pool.requests.push(PoolRequest {
                request: raw_create(
                    &user,
                    &chart.namespace,
                    &chart.object,
                    corrupt(&text, format, set, &mut rng),
                    format,
                ),
                class: Class::Malformed,
                format,
                object: None,
            });
            pool.creates.push(pool.requests.len() as u32);
            pool.requests.push(PoolRequest {
                request: raw_create(&user, &chart.namespace, &chart.object, text, format),
                class: Class::Create,
                format,
                object: Some(index as u32),
            });
        }
        for (index, seeded) in pool.objects.iter().enumerate() {
            let chart = &chart_objects[index % chart_objects.len()];
            pool.gets.push(pool.requests.len() as u32);
            pool.requests.push(PoolRequest {
                request: ApiRequest::get(
                    &chart.operator.user(),
                    seeded.object.kind(),
                    &chart.namespace,
                    seeded.object.name(),
                ),
                class: Class::Get,
                format: formats[index % chart_objects.len()],
                object: Some(index as u32),
            });
        }
        for (index, (user, kind, namespace)) in pool.targets.iter().enumerate() {
            pool.lists.push(pool.requests.len() as u32);
            pool.requests.push(PoolRequest {
                request: ApiRequest::list(user, *kind, namespace),
                class: Class::List,
                format: if (index + rng.below(2)).is_multiple_of(2) {
                    BodyFormat::Yaml
                } else {
                    BodyFormat::Json
                },
                object: None,
            });
        }
        let mut attack_no = 0usize;
        for operator in Operator::ALL {
            let driver = DeploymentDriver::new(operator);
            let executor = AttackExecutor::new(
                &operator.user(),
                operator.namespace(),
                driver.objects().to_vec(),
            );
            for (_spec, object) in executor.malicious_objects() {
                let format = if attack_no.is_multiple_of(2) {
                    BodyFormat::Yaml
                } else {
                    BodyFormat::Json
                };
                attack_no += 1;
                pool.attacks.push(pool.requests.len() as u32);
                pool.requests.push(PoolRequest {
                    request: raw_create(
                        &operator.user(),
                        operator.namespace(),
                        &object,
                        serialize(object.body(), format),
                        format,
                    ),
                    class: Class::Attack,
                    format,
                    object: None,
                });
            }
        }
        pool
    }

    /// Pool indices of one class.
    pub fn of_class(&self, class: Class) -> &[u32] {
        match class {
            Class::Create => &self.creates,
            Class::Get => &self.gets,
            Class::List => &self.lists,
            Class::Attack => &self.attacks,
            Class::Malformed => &self.malformed,
        }
    }

    /// The watch request a subscriber on `target` sends.
    pub fn watch_request(&self, target: usize) -> ApiRequest {
        let (user, kind, namespace) = &self.targets[target % self.targets.len()];
        ApiRequest::watch(user, *kind, namespace, None)
    }

    /// The seeded order `client` issues requests in (indices into
    /// [`Pool::requests`]); the client wraps around at the end. Creates and
    /// gets only touch keys the client owns.
    pub fn schedule(&self, seed: u64, client: usize, traffic: Traffic) -> Vec<u32> {
        let mut rng = Rng::new(seed ^ (0x00C1_1E57_u64.wrapping_mul(client as u64 + 1)));
        let owned = |indices: &[u32]| -> Vec<u32> {
            indices
                .iter()
                .copied()
                .filter(|&i| {
                    let object = self.requests[i as usize].object.expect("keyed request");
                    self.objects[object as usize].owner == client
                })
                .collect()
        };
        let pick = |rng: &mut Rng, from: &[u32]| from[rng.below(from.len())];
        let mut schedule = Vec::new();
        match traffic {
            Traffic::Hostile => {
                for _ in 0..SCHEDULE_CYCLES {
                    let mut cycle = [
                        pick(&mut rng, &self.attacks),
                        pick(&mut rng, &self.attacks),
                        pick(&mut rng, &self.attacks),
                        pick(&mut rng, &self.malformed),
                    ];
                    rng.shuffle(&mut cycle);
                    schedule.extend(cycle);
                }
            }
            Traffic::Mix { mix, attack_every } => {
                let (creates, gets) = (owned(&self.creates), owned(&self.gets));
                assert!(
                    !creates.is_empty() && !gets.is_empty(),
                    "client owns no keys"
                );
                for _ in 0..SCHEDULE_CYCLES {
                    let mut cycle = Vec::with_capacity(mix.cycle_len());
                    cycle.extend((0..mix.create).map(|_| pick(&mut rng, &creates)));
                    cycle.extend((0..mix.get).map(|_| pick(&mut rng, &gets)));
                    cycle.extend((0..mix.list).map(|_| pick(&mut rng, &self.lists)));
                    rng.shuffle(&mut cycle);
                    schedule.extend(cycle);
                }
                if attack_every > 0 {
                    let mut at = rng.below(attack_every);
                    while at < schedule.len() {
                        schedule[at] = pick(&mut rng, &self.attacks);
                        at += attack_every;
                    }
                }
            }
        }
        schedule
    }

    /// Every raw body of the pool with its class and format (layer probes
    /// and the verdict-parity check replay these).
    pub fn bodies(&self) -> impl Iterator<Item = (&str, BodyFormat, Class)> {
        self.requests.iter().filter_map(|entry| {
            let bytes = entry.request.body.raw()?;
            let text = std::str::from_utf8(bytes).expect("pool bodies are UTF-8");
            Some((text, entry.format, entry.class))
        })
    }

    /// The stored trees of the seeded objects (emit/encode probes).
    pub fn trees(&self) -> impl Iterator<Item = &Arc<Value>> {
        self.objects.iter().map(|o| o.object.shared_body())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::generate_validators;
    use k8s_model::Verb;

    /// Creates, gets and lists in `schedule`.
    fn verb_counts(pool: &Pool, schedule: &[u32]) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for &i in schedule {
            match pool.requests[i as usize].request.verb {
                Verb::Create => counts[0] += 1,
                Verb::Get => counts[1] += 1,
                _ => counts[2] += 1,
            }
        }
        counts
    }

    fn fingerprint(pool: &Pool, schedule: &[u32]) -> Vec<(String, Option<Vec<u8>>)> {
        schedule
            .iter()
            .map(|&i| {
                let r = &pool.requests[i as usize].request;
                (r.path(), r.body.raw().map(|b| b.to_vec()))
            })
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let set = generate_validators().0;
        let traffic = Traffic::Mix {
            mix: MixRatio::WRITE_HEAVY,
            attack_every: 16,
        };
        let a = Pool::build(7, 2, 1, &set);
        let b = Pool::build(7, 2, 1, &set);
        let c = Pool::build(8, 2, 1, &set);
        let (sa, sb, sc) = (
            a.schedule(7, 0, traffic),
            b.schedule(7, 0, traffic),
            c.schedule(8, 0, traffic),
        );
        assert_eq!(fingerprint(&a, &sa), fingerprint(&b, &sb));
        assert_ne!(fingerprint(&a, &sa), fingerprint(&c, &sc));
        assert_ne!(sa, a.schedule(7, 1, traffic), "clients differ");
    }

    #[test]
    fn the_mix_holds_and_clients_stay_on_their_own_keys() {
        let set = generate_validators().0;
        let pool = Pool::build(1, 2, 2, &set);
        assert_eq!(pool.objects.len(), 2 * pool.of_class(Class::Create).len());
        let mix = MixRatio::OPERATOR_RECONCILE;
        for client in 0..2 {
            let schedule = pool.schedule(
                1,
                client,
                Traffic::Mix {
                    mix,
                    attack_every: 0,
                },
            );
            assert_eq!(schedule.len(), SCHEDULE_CYCLES * mix.cycle_len());
            let [creates, gets, lists] = verb_counts(&pool, &schedule);
            assert_eq!(creates, SCHEDULE_CYCLES * mix.create);
            assert_eq!(gets, SCHEDULE_CYCLES * mix.get);
            assert_eq!(lists, SCHEDULE_CYCLES * mix.list);
            for &i in &schedule {
                if let Some(object) = pool.requests[i as usize].object {
                    assert_eq!(pool.objects[object as usize].owner, client);
                }
            }
        }
        // One request in sixteen is an attack when asked for.
        let schedule = pool.schedule(
            1,
            0,
            Traffic::Mix {
                mix: MixRatio::WRITE_HEAVY,
                attack_every: 16,
            },
        );
        let attacks = schedule
            .iter()
            .filter(|&&i| pool.requests[i as usize].class == Class::Attack)
            .count();
        assert_eq!(attacks, schedule.len() / 16);
        // Hostile traffic holds nothing the proxy may admit.
        let hostile = pool.schedule(1, 0, Traffic::Hostile);
        assert!(hostile
            .iter()
            .all(|&i| pool.requests[i as usize].class.hostile()));
    }

    #[test]
    fn every_hostile_body_is_refused_and_every_legitimate_one_admitted() {
        let set = generate_validators().0;
        for seed in [1, 2, 3] {
            let pool = Pool::build(seed, 2, 1, &set);
            for (text, format, class) in pool.bodies() {
                let admitted = set.validate_raw_format(text, format).is_admitted();
                assert_eq!(admitted, !class.hostile(), "seed {seed} {class:?}:\n{text}");
            }
        }
    }
}
