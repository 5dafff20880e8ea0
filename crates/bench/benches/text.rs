//! String-similarity kernel throughput — these run inside the matcher's
//! innermost loop, so they dominate objective-function cost.

use criterion::{criterion_group, criterion_main, Criterion};
use smx::text::{
    jaro_winkler, levenshtein_similarity, monge_elkan, trigram_similarity, NameSimilarity,
};
use std::hint::black_box;

const PAIRS: [(&str, &str); 5] = [
    ("customerName", "custName"),
    ("orderLineItem", "lineItem"),
    ("publisher", "publicationYear"),
    ("departureDate", "depDate"),
    ("isbn", "issn"),
];

type Kernel = fn(&str, &str) -> f64;

fn bench_kernels(c: &mut Criterion) {
    let kernels: [(&str, Kernel); 4] = [
        ("levenshtein", levenshtein_similarity),
        ("jaro_winkler", jaro_winkler),
        ("trigram", trigram_similarity),
        ("monge_elkan", monge_elkan),
    ];
    for (name, kernel) in kernels {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for (x, y) in PAIRS {
                    acc += kernel(black_box(x), black_box(y));
                }
                black_box(acc)
            })
        });
    }
}

fn bench_combined(c: &mut Criterion) {
    let sim = NameSimilarity::default();
    c.bench_function("name_similarity_default", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (x, y) in PAIRS {
                acc += sim.similarity(black_box(x), black_box(y));
            }
            black_box(acc)
        })
    });
}

criterion_group!(benches, bench_kernels, bench_combined);
criterion_main!(benches);
