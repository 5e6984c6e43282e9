//! Property test: the clock's dense attribution (per-trap tag ids, typed
//! counters) reports exactly what a name-keyed hash-map clock would.
//!
//! Random `push_tag`/`pop_tag`/`charge`/`count` sequences (zero-length
//! charges and resets included) drive both the real [`Clock`] and a
//! test-local reference model keyed by tag and counter *names*. Every
//! observable view must agree: per-tag time, `tags_by_time`, `counters`,
//! the `snap_save` bytes and the `snap_fingerprint`.

use std::collections::HashMap;

use svt::sim::snapshot::{intern_static, Fingerprint, SnapReader, SnapWriter};
use svt::sim::{Clock, CostPart, DetRng, SimCounter, SimDuration};

/// Exit-reason style tags. The last two are equal strings at distinct
/// addresses, so the clock must key tags by content, not by pointer.
fn tag_universe() -> Vec<&'static str> {
    vec![
        "CPUID",
        "EPT_MISCONFIG",
        "MSR_WRITE",
        "EXTERNAL_INTERRUPT",
        "HLT",
        intern_static(&String::from("VMCALL")),
        "VMCALL",
    ]
}

/// The reference: the clock's semantics written with name-keyed maps.
#[derive(Default)]
struct Model {
    now: u64,
    parts: Vec<CostPart>,
    part_time: HashMap<CostPart, u64>,
    tags: Vec<&'static str>,
    tag_time: HashMap<&'static str, u64>,
    counters: HashMap<&'static str, u64>,
}

impl Model {
    fn charge(&mut self, ps: u64) {
        self.now += ps;
        let part = self.parts.last().copied().unwrap_or(CostPart::Other);
        *self.part_time.entry(part).or_default() += ps;
        if let Some(tag) = self.tags.last() {
            *self.tag_time.entry(tag).or_default() += ps;
        }
    }

    fn reset(&mut self) {
        self.part_time.clear();
        self.tag_time.clear();
        self.counters.clear();
    }

    fn sorted_tags(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.tag_time.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    fn sorted_counters(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.counters.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    fn tags_by_time(&self) -> Vec<(&'static str, SimDuration)> {
        let mut v: Vec<_> = self
            .tag_time
            .iter()
            .map(|(k, v)| (*k, SimDuration::from_ps(*v)))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v
    }

    fn snap_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(self.now);
        w.usize(self.parts.len());
        for &p in &self.parts {
            w.u8(p as u8);
        }
        for p in CostPart::ALL {
            w.u64(self.part_time.get(&p).copied().unwrap_or(0));
        }
        w.usize(self.tags.len());
        for t in &self.tags {
            w.str(t);
        }
        for list in [self.sorted_tags(), self.sorted_counters()] {
            w.usize(list.len());
            for (k, v) in list {
                w.str(k);
                w.u64(v);
            }
        }
        w.into_vec()
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.fold(self.now);
        for p in CostPart::ALL {
            fp.fold(self.part_time.get(&p).copied().unwrap_or(0));
        }
        for list in [self.sorted_tags(), self.sorted_counters()] {
            for (k, v) in list {
                fp.fold_bytes(k.as_bytes());
                fp.fold(v);
            }
        }
        fp.value()
    }
}

fn snap_bytes(c: &Clock) -> Vec<u8> {
    let mut w = SnapWriter::new();
    c.snap_save(&mut w);
    w.into_vec()
}

fn fingerprint(c: &Clock) -> u64 {
    let mut fp = Fingerprint::new();
    c.snap_fingerprint(&mut fp);
    fp.value()
}

fn assert_agree(c: &Clock, m: &Model, at: &str) {
    for tag in tag_universe() {
        let want = SimDuration::from_ps(m.tag_time.get(tag).copied().unwrap_or(0));
        assert_eq!(c.tag_time(tag), want, "{at}: tag_time({tag})");
    }
    assert_eq!(c.tags_by_time(), m.tags_by_time(), "{at}: tags_by_time");
    assert_eq!(c.counters(), m.sorted_counters(), "{at}: counters");
    for counter in SimCounter::ALL {
        let name = counter.name();
        let want = m.counters.get(name).copied().unwrap_or(0);
        assert_eq!(c.counter(name), want, "{at}: counter({name})");
    }
    assert_eq!(snap_bytes(c), m.snap_bytes(), "{at}: snap_save bytes");
    assert_eq!(fingerprint(c), m.fingerprint(), "{at}: snap_fingerprint");
}

/// One random step applied to both the clock and the model.
fn step(rng: &mut DetRng, c: &mut Clock, m: &mut Model, tags: &[&'static str]) {
    match rng.below(100) {
        0..=17 if m.tags.len() < 4 => {
            let tag = tags[rng.below(tags.len() as u64) as usize];
            c.push_tag(tag);
            m.tags.push(tag);
        }
        18..=33 if !m.tags.is_empty() => {
            // Pop by an equal string from the universe, not necessarily
            // the pushed pointer.
            let top = m.tags.pop().expect("non-empty");
            let alias = tags.iter().rev().find(|t| **t == top).expect("in universe");
            c.pop_tag(alias);
        }
        34..=39 if m.parts.len() < 3 => {
            let part = CostPart::ALL[rng.below(CostPart::COUNT as u64) as usize];
            c.push_part(part);
            m.parts.push(part);
        }
        40..=45 if !m.parts.is_empty() => {
            let part = m.parts.pop().expect("non-empty");
            c.pop_part(part);
        }
        46..=75 => {
            // A quarter of the charges are zero-length: a tag charged
            // nothing must still be reported.
            let ps = if rng.chance(0.25) {
                0
            } else {
                rng.range(1, 5_000)
            };
            c.charge(SimDuration::from_ps(ps));
            m.charge(ps);
        }
        76..=97 => {
            let counter = SimCounter::ALL[rng.below(SimCounter::COUNT as u64) as usize];
            c.count(counter);
            *m.counters.entry(counter.name()).or_default() += 1;
        }
        98 | 99 => {
            c.reset_attribution();
            m.reset();
        }
        _ => {}
    }
}

#[test]
fn dense_attribution_matches_a_name_keyed_model() {
    let tags = tag_universe();
    let mut rng = DetRng::seed(0xc10c_0001);
    for case in 0..64 {
        let mut c = Clock::new();
        let mut m = Model::default();
        let n_ops = rng.range(1, 400);
        for op in 0..n_ops {
            step(&mut rng, &mut c, &mut m, &tags);
            if op % 37 == 0 {
                assert_agree(&c, &m, &format!("case {case} op {op}"));
            }
        }
        assert_agree(&c, &m, &format!("case {case} end"));
    }
}

#[test]
fn clock_saved_with_a_tag_on_the_stack_round_trips() {
    let tags = tag_universe();
    let mut rng = DetRng::seed(0xc10c_0002);
    for case in 0..32 {
        let mut c = Clock::new();
        let mut m = Model::default();
        for _ in 0..rng.range(0, 200) {
            step(&mut rng, &mut c, &mut m, &tags);
        }
        // Leave an uncharged tag on the stack at save time.
        c.push_tag("PAUSE");
        m.tags.push("PAUSE");
        let bytes = snap_bytes(&c);
        assert_eq!(bytes, m.snap_bytes(), "case {case}: saved bytes");

        let mut back = Clock::new();
        let mut r = SnapReader::new(&bytes);
        back.snap_load(&mut r).expect("own snapshot loads");
        assert_eq!(snap_bytes(&back), bytes, "case {case}: re-save differs");
        assert_eq!(fingerprint(&back), fingerprint(&c), "case {case}");

        // Both continue identically: the restored stack pops the same tag
        // and charges land on it.
        for clock in [&mut c, &mut back] {
            clock.charge(SimDuration::from_ps(11));
            clock.pop_tag("PAUSE");
        }
        m.charge(11);
        m.tags.pop();
        assert_agree(&back, &m, &format!("case {case} restored"));
        assert_agree(&c, &m, &format!("case {case} original"));
    }
}
