//! **M (micro)** — substrate sanity benchmarks under Criterion: parser
//! throughput, word expansion, the regex engine, line framing, and the
//! split/merge operators. These quantify the JIT's fixed costs (the
//! overhead the no-regression guard amortizes).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use jash_expand::{NoSubst, ShellState};
use std::hint::black_box;

fn bench_parser(c: &mut Criterion) {
    let script = r#"
FILES="/a /b"
if [ -f /etc/conf ]; then
    cat $FILES | tr A-Z a-z | tr -cs A-Za-z '\n' | sort -u | comm -13 $DICT -
fi
for f in one two three; do
    grep -v 999 "$f" | sort -rn | head -n1 > "out-$f"
done
case $1 in -v) verbose=1;; *) :;; esac
"#;
    let mut g = c.benchmark_group("parser");
    g.throughput(Throughput::Bytes(script.len() as u64));
    g.bench_function("parse_script", |b| {
        b.iter(|| jash_parser::parse(black_box(script)).unwrap())
    });
    let prog = jash_parser::parse_unwrap(script);
    g.bench_function("unparse_script", |b| {
        b.iter(|| jash_ast::unparse(black_box(&prog)))
    });
    g.finish();
}

fn bench_expansion(c: &mut Criterion) {
    let mut state = ShellState::new(jash_io::mem_fs());
    state.set_var("FILES", "/a.txt /b.txt /c.txt");
    state.set_var("X", "value-of-x");
    let prog = jash_parser::parse_unwrap("echo $FILES ${X:-d} ${X%-*} \"$X $FILES\" $((1+2*3))");
    let jash_ast::CommandKind::Simple(sc) = &prog.items[0].and_or.first.commands[0].kind else {
        unreachable!()
    };
    let words = sc.words[1..].to_vec();
    c.bench_function("expand/five_words", |b| {
        b.iter(|| {
            jash_expand::expand_words(black_box(&mut state), &mut NoSubst, black_box(&words))
                .unwrap()
        })
    });
}

fn bench_regex(c: &mut Criterion) {
    use jash_coreutils::regex::{Flavor, Regex};
    let line = b"10.20.30.40 GET /api/v1/items?id=12345 took 99ms status 200";
    let mut g = c.benchmark_group("regex");
    g.throughput(Throughput::Bytes(line.len() as u64));
    let literal = Regex::new("status", Flavor::Bre, false).unwrap();
    g.bench_function("literal_search", |b| {
        b.iter(|| literal.is_match(black_box(line)))
    });
    // The byte-search program's other two shapes: a suffix test, and a
    // scan that never finds its first byte.
    let anchored = Regex::new(" 200$", Flavor::Bre, false).unwrap();
    g.bench_function("anchored_end", |b| {
        b.iter(|| anchored.is_match(black_box(line)))
    });
    let miss = Regex::new("Zstatus", Flavor::Bre, false).unwrap();
    g.bench_function("literal_miss", |b| {
        b.iter(|| miss.is_match(black_box(line)))
    });
    // Everything below runs the state-set simulation.
    let cls = Regex::new("[0-9][0-9]*ms", Flavor::Bre, false).unwrap();
    g.bench_function("class_star", |b| b.iter(|| cls.is_match(black_box(line))));
    let alt = Regex::new("GET|POST|PUT", Flavor::Ere, false).unwrap();
    g.bench_function("ere_alternation", |b| b.iter(|| alt.is_match(black_box(line))));
    g.finish();
}

fn bench_line_framing(c: &mut Criterion) {
    let data: Vec<u8> = "the quick brown fox\n".repeat(5000).into_bytes();
    let mut g = c.benchmark_group("framing");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("line_buffer", |b| {
        b.iter(|| {
            let mut lb = jash_io::LineBuffer::new();
            lb.push(black_box(&data));
            let mut n = 0usize;
            while let Some(l) = lb.next_line() {
                n += l.len();
            }
            n
        })
    });
    g.finish();
}

fn bench_split_merge(c: &mut Criterion) {
    let corpus = jash_bench::word_corpus(1 << 20, 17);
    let mut sorted: Vec<&[u8]> = jash_io::split_lines(&corpus);
    sorted.sort();
    let mut halves: Vec<Vec<u8>> = vec![Vec::new(), Vec::new()];
    for (i, l) in sorted.iter().enumerate() {
        // Alternate sorted lines so both halves stay sorted.
        halves[i % 2].extend_from_slice(l);
        halves[i % 2].push(b'\n');
    }
    let mut g = c.benchmark_group("operators");
    g.throughput(Throughput::Bytes(corpus.len() as u64));
    g.bench_function("merge_sort_2way", |b| {
        b.iter(|| {
            let inputs: Vec<Box<dyn jash_io::ByteStream>> = halves
                .iter()
                .map(|h| {
                    Box::new(jash_io::MemStream::from_bytes(h.clone())) as Box<dyn jash_io::ByteStream>
                })
                .collect();
            let mut sink = jash_io::VecSink::new();
            jash_exec::run_merge(
                &jash_spec::Aggregator::MergeSort {
                    key: jash_spec::SortKeySpec::default(),
                },
                inputs,
                &mut sink,
            )
            .unwrap();
            sink.data.len()
        })
    });
    g.bench_function("contiguous_split_4way", |b| {
        b.iter(|| {
            let mut input = jash_io::MemStream::from_bytes(corpus.clone());
            let mut sinks: Vec<Box<dyn jash_io::Sink>> =
                (0..4).map(|_| Box::new(jash_io::VecSink::new()) as Box<dyn jash_io::Sink>).collect();
            jash_exec::split_contiguous(
                &mut input,
                &mut sinks,
                &jash_exec::balanced_targets(corpus.len() as u64, 4),
            )
            .unwrap()
        })
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_parser, bench_expansion, bench_regex, bench_line_framing, bench_split_merge
}
criterion_main!(benches);
