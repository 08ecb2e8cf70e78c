//! The benchmark's own checks, at smoke size: every workload passes its
//! output checks and prints exactly the metrics `BENCHMARK.json` declares,
//! and one seed replays the same inputs.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = [
    "svc-hashtable-zipf",
    "direct-sharded-zipf-8k",
    "direct-universal-counter",
];

/// A parsed JSON value: just enough for the result line and
/// `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key:?} in {self:?}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing input in {text:?}");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {:?} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        while self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                self.i += 1;
            }
            out.push(self.s[self.i] as char);
            self.i += 1;
        }
        self.i += 1;
        out
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",}] \n".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).expect("ascii") {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad token {n:?}"))),
                }
            }
        }
    }
}

/// One smoke-size run: the provenance line and the result line.
struct Run {
    provenance: Json,
    result: Json,
}

impl Run {
    fn metric(&self, name: &str) -> f64 {
        self.result.get("metrics").get(name).get("value").num()
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_hi_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let provenance = stdout
        .lines()
        .find_map(|l| l.strip_prefix("provenance "))
        .expect("a provenance line");
    Run {
        provenance: parse(provenance),
        result: parse(stdout.lines().last().expect("a result line")),
    }
}

/// (name, unit) of every metric a `BENCHMARK.json` section declares.
fn declared(section: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"));
    let Json::Arr(items) = doc.get(section) else {
        panic!("{section} is not a list");
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_declared_metrics() {
    for workload in WORKLOADS {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = run(workload, 0xbe7c, trace);
            assert_eq!(r.result.get("correct"), &Json::Bool(true), "{workload}");
            assert_eq!(r.result.get("failed").num(), 0.0, "{workload}");
            assert!(r.result.get("attempted").num() > 0.0, "{workload}");
            let Json::Obj(metrics) = r.result.get("metrics") else {
                panic!("metrics is not an object");
            };
            let printed: BTreeMap<String, String> = metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
                .collect();
            assert_eq!(printed, declared(section), "{workload} (trace {trace})");
        }
    }
}

#[test]
fn one_seed_replays_the_same_inputs() {
    for workload in WORKLOADS {
        let a = run(workload, 0xd1ce, true);
        let b = run(workload, 0xd1ce, true);
        let other = run(workload, 0xd1cf, false);
        let digest = |r: &Run| r.provenance.get("inputs_digest").str().to_string();
        assert_eq!(digest(&a), digest(&b), "{workload}: same seed, same inputs");
        assert_ne!(
            digest(&a),
            digest(&other),
            "{workload}: another seed, other inputs"
        );
        for exact in ["shard.resizes", "hashtable.mean_displacement"] {
            assert_eq!(a.metric(exact), b.metric(exact), "{workload}: {exact}");
        }
    }
}
