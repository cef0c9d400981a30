//! The traced pass: the workload's request stream replayed stage by stage
//! through the public function of each layer, a span around every call.
//!
//! Each request runs twice on one thread: once whole, through
//! `augmented_search`, and once staged (validate → execute → plan → fetch,
//! then the wire stages a server adds). The whole call is the untraced
//! reference: the stages must add up to it, and the two answers must be
//! the same text. The staged fetch runs on a cache, worker pool, flight
//! table and breaker set the benchmark owns, so both passes see a cache
//! of the same size fed by the same stream.

use std::sync::Arc;
use std::time::Instant;

use quepa_core::augmenter::{self, FetchRuntime};
use quepa_core::{
    AnswerNormalForm, AugmentedAnswer, FlightTable, ObjectCache, Quepa, Validator, WorkerPool,
};
use quepa_pdm::GlobalKey;
use quepa_polystore::{BreakerSet, StoreKind};
use quepa_serve::{
    augment_payload, decode_request, decode_response, encode_request, encode_response,
    parse_augment_payload, Response, Status, Verb,
};

use crate::trace::{Trace, NO_PARENT};
use crate::workload::{fingerprint, Expected, Request, Spec, Stream};

/// Spans per staged request; the trace file keeps whole requests.
pub const SPANS_PER_REQUEST: usize = 9;

/// Per-request samples of the traced pass.
#[derive(Debug, Default)]
pub struct Staged {
    /// The whole call, per request.
    pub whole_ms: Vec<f64>,
    /// The span around the four query stages.
    pub query_ms: Vec<f64>,
    /// The four query stages added up, per request.
    pub stage_sum_ms: Vec<f64>,
    pub validate_us: Vec<f64>,
    /// Local query time by store kind: relational, document, graph.
    pub execute_us: [Vec<f64>; 3],
    pub plan_us: Vec<f64>,
    pub fetch_ms: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub plan_objects: Vec<f64>,
    pub groups: Vec<f64>,
    pub filtered_out: Vec<f64>,
    pub mismatches: u64,
    pub pool_spawned: usize,
    /// Keys the plans pointed at, for the cache and `multi_get` probes.
    pub sample_keys: Vec<GlobalKey>,
}

fn execute_slot(kind: StoreKind) -> (usize, &'static str) {
    match kind {
        StoreKind::Relational => (0, "relstore.execute"),
        StoreKind::Document => (1, "docstore.execute"),
        StoreKind::Graph => (2, "graphstore.execute"),
        StoreKind::KeyValue => unreachable!("no workload queries the key-value store directly"),
    }
}

/// The benchmark-owned serving machinery of the staged fetch.
struct Machinery {
    cache: Arc<ObjectCache>,
    pool: WorkerPool,
    flight: Arc<FlightTable>,
    breakers: Arc<BreakerSet>,
}

/// Replays the stream for `seconds` (after `warm_s` unrecorded seconds
/// that fill the staged cache). `expected` is `None` once mutations have
/// changed the index; the staged answer is still checked against the
/// whole call's.
pub fn replay(
    quepa: &Quepa,
    spec: &Spec,
    pool: &[Request],
    expected: Option<&[Expected]>,
    seed: u64,
    warm_s: f64,
    seconds: f64,
) -> (Staged, Trace) {
    let config = spec.config();
    let machinery = Machinery {
        cache: Arc::new(ObjectCache::new(config.cache_size)),
        pool: WorkerPool::new(WorkerPool::default_width()),
        flight: Arc::new(FlightTable::new()),
        breakers: Arc::new(BreakerSet::new(config.resilience.breaker)),
    };
    let mut stream = Stream::new(spec, seed, 0);
    let mut run = |seconds: f64| {
        let mut staged = Staged::default();
        let mut trace = Trace::new((seconds * 2000.0) as usize * SPANS_PER_REQUEST);
        let start = Instant::now();
        let mut id = 0u32;
        while start.elapsed().as_secs_f64() < seconds {
            let index = stream.next_index();
            one_request(
                quepa,
                spec,
                &machinery,
                &pool[index],
                expected.map(|e| &e[index]),
                id,
                &mut staged,
                &mut trace,
            );
            id += 1;
        }
        (staged, trace)
    };
    run(warm_s);
    let (mut staged, trace) = run(seconds);
    staged.pool_spawned = machinery.pool.spawned();
    (staged, trace)
}

#[allow(clippy::too_many_arguments)]
fn one_request(
    quepa: &Quepa,
    spec: &Spec,
    machinery: &Machinery,
    request: &Request,
    expected: Option<&Expected>,
    id: u32,
    staged: &mut Staged,
    trace: &mut Trace,
) {
    // Whichever pass comes second finds the processor's caches warm, so
    // the two take turns going first.
    let whole_first = id.is_multiple_of(2);
    let mut whole = whole_first.then(|| whole_call(quepa, request, staged));

    let request_frame = encode_request(&quepa_serve::Request {
        id: u64::from(id),
        verb: Verb::Augment,
        payload: augment_payload(request.database, request.level, &request.query),
    });
    let config = spec.config();
    let polystore = quepa.polystore();
    let us = |ns: u64| ns as f64 / 1e3;

    let root = trace.begin("request", NO_PARENT, id);

    let span = trace.begin("serve.decode_request", root, id);
    let decoded = decode_request(&request_frame[4..]).expect("own frame decodes");
    let (database, level, query) = parse_augment_payload(&decoded.payload).expect("own payload");
    staged.decode_us.push(us(trace.end(span)));

    let query_span = trace.begin("query", root, id);

    let span = trace.begin("core.validate", query_span, id);
    let connector = polystore.connector_by_name(database).expect("known database");
    let validated = Validator.validate(connector.kind(), query).expect("valid query");
    let validate_ns = trace.end(span);
    staged.validate_us.push(us(validate_ns));

    let (slot, name) = execute_slot(connector.kind());
    let span = trace.begin(name, query_span, id);
    let original = connector.execute(&validated.query).expect("local query");
    let execute_ns = trace.end(span);
    staged.execute_us[slot].push(us(execute_ns));

    let span = trace.begin("core.plan", query_span, id);
    let view = quepa.index();
    let keys: Vec<GlobalKey> = original.iter().map(|o| o.key().clone()).collect();
    let plan = augmenter::plan(&view, &keys, level);
    let plan_ns = trace.end(span);
    staged.plan_us.push(us(plan_ns));

    let runtime = FetchRuntime {
        breakers: &machinery.breakers,
        obs: None,
        pool: Some(&machinery.pool),
        flight: Some(&machinery.flight),
    };
    let span = trace.begin("core.fetch", query_span, id);
    let outcome = match &request.filter {
        Some(filter) => {
            augmenter::run_planned_filtered(
                polystore,
                &machinery.cache,
                &plan,
                &config,
                &runtime,
                filter,
                None,
            )
            .expect("filtered fetch")
            .0
        }
        None => augmenter::run_planned_with(polystore, &machinery.cache, &plan, &config, &runtime)
            .expect("fetch"),
    };
    let fetch_ns = trace.end(span);
    staged.fetch_ms.push(fetch_ns as f64 / 1e6);

    staged.query_ms.push(trace.end(query_span) as f64 / 1e6);
    staged.stage_sum_ms.push((validate_ns + execute_ns + plan_ns + fetch_ns) as f64 / 1e6);

    let span = trace.begin("serve.encode_response", root, id);
    let text = AnswerNormalForm::from_parts(
        outcome.objects.iter().map(|a| (a.object.key().clone(), a.probability, a.distance)),
        outcome.missing.clone(),
    )
    .to_string();
    let response_frame =
        encode_response(&Response { id: u64::from(id), status: Status::Ok, payload: text });
    staged.encode_us.push(us(trace.end(span)));

    let span = trace.begin("client.decode_response", root, id);
    let response = decode_response(&response_frame[4..]).expect("own frame decodes");
    trace.end(span);

    trace.end(root);

    let whole = whole.take().unwrap_or_else(|| whole_call(quepa, request, staged));

    // Counts read at the same boundaries, and the answer check.
    staged.plan_objects.push(plan.augmented.len() as f64);
    let mut groups: Vec<(&str, &str)> = plan
        .augmented
        .iter()
        .map(|a| (a.key.database().as_str(), a.key.collection().as_str()))
        .collect();
    groups.sort_unstable();
    groups.dedup();
    staged.groups.push(groups.len() as f64);
    if request.filter.is_some() {
        let delivered = outcome.objects.len() + outcome.missing.len();
        staged.filtered_out.push(plan.augmented.len().saturating_sub(delivered) as f64);
    }
    if staged.sample_keys.len() < 4096 {
        staged.sample_keys.extend(plan.augmented.iter().map(|a| a.key.clone()));
    }
    let same_text = response.payload == whole.normal_form().to_string();
    let as_expected = expected.is_none_or(|e| fingerprint(&whole) == e.fingerprint);
    if !(same_text && as_expected && original.len() == spec.window) {
        staged.mismatches += 1;
    }
}

/// The whole call, `augmented_search` as a user makes it: the untraced
/// reference the stages are compared with.
fn whole_call(quepa: &Quepa, request: &Request, staged: &mut Staged) -> AugmentedAnswer {
    let sent = Instant::now();
    let whole = request.run(quepa).expect("whole call");
    let whole_ms = sent.elapsed().as_secs_f64() * 1e3;
    staged.whole_ms.push(whole_ms);
    whole
}

/// Nanoseconds per `ObjectCache::probe` on the system's own cache.
pub fn cache_probe_ns(quepa: &Quepa, keys: &[GlobalKey]) -> f64 {
    if keys.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut found = 0usize;
    for key in keys {
        found += usize::from(quepa.cache().probe(key).is_some());
    }
    std::hint::black_box(found);
    start.elapsed().as_nanos() as f64 / keys.len() as f64
}

/// Microseconds per key of `Connector::multi_get` on groups of up to 64
/// keys of one collection (one round trip each; a simulated link's sleep
/// is part of it).
pub fn multi_get_us_per_key(quepa: &Quepa, keys: &[GlobalKey]) -> f64 {
    let mut sorted: Vec<&GlobalKey> = keys.iter().collect();
    sorted.sort_by_key(|k| (k.database().as_str(), k.collection().as_str()));
    let mut fetched = 0usize;
    let mut spent = 0.0;
    for group in
        sorted.chunk_by(|a, b| a.database() == b.database() && a.collection() == b.collection())
    {
        let connector = quepa.polystore().connector(group[0].database()).expect("known database");
        for chunk in group.chunks(64).take(8) {
            let locals: Vec<_> = chunk.iter().map(|k| k.key().clone()).collect();
            let start = Instant::now();
            let objects = connector.multi_get(group[0].collection(), &locals).expect("multi_get");
            spent += start.elapsed().as_secs_f64() * 1e6;
            fetched += objects.len();
        }
    }
    if fetched == 0 {
        0.0
    } else {
        spent / fetched as f64
    }
}
