//! Microbenchmarks of the four storage engines' native query paths — the
//! substrate costs underneath every augmentation experiment.

use criterion::{criterion_group, criterion_main, Criterion};
use quepa_bench::Lab;
use quepa_polystore::Deployment;

fn bench_stores(c: &mut Criterion) {
    let lab = Lab::new(2_000, 0, Deployment::InProcess);
    let mut group = c.benchmark_group("stores-native");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));

    group.bench_function("relational-like-scan", |b| {
        b.iter(|| {
            lab.polystore
                .execute("transactions", "SELECT * FROM inventory WHERE name LIKE '%wish%'")
                .unwrap()
        });
    });
    group.bench_function("relational-range", |b| {
        b.iter(|| {
            lab.polystore
                .execute("transactions", "SELECT * FROM inventory WHERE seq < 500")
                .unwrap()
        });
    });
    group.bench_function("document-filter", |b| {
        b.iter(|| {
            lab.polystore.execute("catalogue", r#"db.albums.find({"seq":{"$lt":500}})"#).unwrap()
        });
    });
    group.bench_function("graph-pattern", |b| {
        b.iter(|| {
            lab.polystore.execute("similar", "MATCH (n:Album) WHERE n.seq < 500 RETURN n").unwrap()
        });
    });
    group.bench_function("kv-scan", |b| {
        b.iter(|| lab.polystore.execute("discount", "SCAN k COUNT 500").unwrap());
    });
    group.bench_function("point-get-by-global-key", |b| {
        let key: quepa_pdm::GlobalKey = "transactions.inventory.a77".parse().unwrap();
        let connector = lab.polystore.connector(key.database()).unwrap();
        b.iter(|| connector.get(key.collection(), key.key()).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_stores);
criterion_main!(benches);
