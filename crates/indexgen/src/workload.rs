//! Query-side workload generation.
//!
//! §1.1.1: "The VIP level data serve more than 80% user queries while
//! consuming only a few TBs of storage space." Read experiments therefore
//! need query streams whose *term popularity* is heavily skewed and whose
//! document focus leans VIP — uniform sampling would understate locality
//! and overstate tail work.
//!
//! [`QueryWorkload`] derives a deterministic query stream from a corpus:
//! each query carries 1–4 terms drawn from a Zipf-like popularity ranking
//! over the vocabulary, biased (with configurable probability) toward
//! terms appearing in VIP documents.

use crate::corpus::{CrawlSimulator, DocTier};
use bytes::Bytes;
use rand::distributions::WeightedIndex;
use rand::prelude::*;
use std::collections::HashSet;
use std::ops::RangeInclusive;

/// A single search query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Term keys (`term:{id:08}`), deduplicated.
    pub terms: Vec<Bytes>,
}

/// Terms per query, inclusive bounds.
const TERMS_PER_QUERY: RangeInclusive<usize> = 1..=4;

/// Query-stream parameters.
#[derive(Debug, Clone, Copy)]
pub struct QueryWorkloadConfig {
    /// Zipf skew exponent over the term popularity ranking (≈1.0 for web
    /// queries).
    pub zipf_s: f64,
    /// Probability that a query is drawn from the VIP term pool — the
    /// paper's ">80% of user queries".
    pub vip_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueryWorkloadConfig {
    fn default() -> Self {
        QueryWorkloadConfig {
            zipf_s: 1.0,
            vip_fraction: 0.8,
            seed: 0x9E37_C0DE,
        }
    }
}

/// A deterministic query generator bound to one corpus.
pub struct QueryWorkload {
    vip_terms: Vec<u32>,
    all_terms: Vec<u32>,
    vip_weights: WeightedIndex<f64>,
    all_weights: WeightedIndex<f64>,
    cfg: QueryWorkloadConfig,
    rng: StdRng,
}

fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect()
}

impl QueryWorkload {
    /// Builds the generator from the corpus's current term sets.
    ///
    /// # Panics
    /// Panics if the corpus has no terms (empty vocabulary).
    pub fn new(sim: &CrawlSimulator, cfg: QueryWorkloadConfig) -> Self {
        assert!((0.0..=1.0).contains(&cfg.vip_fraction));
        let mut vip: HashSet<u32> = HashSet::new();
        let mut all: HashSet<u32> = HashSet::new();
        for (terms, tier) in sim.doc_terms() {
            for &t in terms {
                all.insert(t);
                if tier == DocTier::Vip {
                    vip.insert(t);
                }
            }
        }
        assert!(!all.is_empty(), "corpus has no terms");
        let mut all_terms: Vec<u32> = all.into_iter().collect();
        all_terms.sort_unstable();
        let mut vip_terms: Vec<u32> = vip.into_iter().collect();
        vip_terms.sort_unstable();
        if vip_terms.is_empty() {
            // Corpora without VIP docs still serve queries; fall back to
            // the full pool.
            vip_terms = all_terms.clone();
        }
        let vip_weights = WeightedIndex::new(zipf_weights(vip_terms.len(), cfg.zipf_s))
            .expect("non-empty weights");
        let all_weights = WeightedIndex::new(zipf_weights(all_terms.len(), cfg.zipf_s))
            .expect("non-empty weights");
        QueryWorkload {
            vip_terms,
            all_terms,
            vip_weights,
            all_weights,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
        }
    }

    /// Draws the next query.
    pub fn next_query(&mut self) -> Query {
        let vip = self.rng.gen_bool(self.cfg.vip_fraction);
        let (pool, weights) = if vip {
            (&self.vip_terms, &self.vip_weights)
        } else {
            (&self.all_terms, &self.all_weights)
        };
        let n = self.rng.gen_range(TERMS_PER_QUERY);
        let mut terms: Vec<u32> = (0..n)
            .map(|_| pool[weights.sample(&mut self.rng)])
            .collect();
        terms.sort_unstable();
        terms.dedup();
        Query {
            terms: terms
                .into_iter()
                .map(|t| Bytes::from(format!("term:{t:08}")))
                .collect(),
        }
    }

    /// Draws `n` queries.
    pub fn take(&mut self, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use std::collections::HashMap;

    fn sim() -> CrawlSimulator {
        let mut s = CrawlSimulator::new(CorpusConfig {
            num_docs: 400,
            vip_fraction: 0.1,
            ..CorpusConfig::tiny()
        });
        s.advance_round(1.0);
        s
    }

    #[test]
    fn queries_are_deterministic_and_well_formed() {
        let s = sim();
        let mut a = QueryWorkload::new(&s, QueryWorkloadConfig::default());
        let mut b = QueryWorkload::new(&s, QueryWorkloadConfig::default());
        let qa = a.take(50);
        let qb = b.take(50);
        assert_eq!(qa, qb);
        for q in &qa {
            assert!(!q.terms.is_empty() && q.terms.len() <= 4);
            for t in &q.terms {
                assert!(t.starts_with(b"term:"));
            }
        }
    }

    #[test]
    fn term_popularity_is_skewed() {
        let s = sim();
        let mut w = QueryWorkload::new(&s, QueryWorkloadConfig::default());
        let mut counts: HashMap<Bytes, usize> = HashMap::new();
        for q in w.take(3000) {
            for t in q.terms {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        let mut freq: Vec<usize> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf: the head term dwarfs the median term.
        let head = freq[0];
        let median = freq[freq.len() / 2];
        assert!(
            head > 5 * median.max(1),
            "popularity not skewed: head {head}, median {median}"
        );
    }

    #[test]
    fn vip_bias_dominates_the_stream() {
        let s = sim();
        // Collect the VIP term pool directly for the check.
        let mut vip_terms = std::collections::HashSet::new();
        for (terms, tier) in s.doc_terms() {
            if tier == DocTier::Vip {
                vip_terms.extend(terms.iter().copied());
            }
        }
        let mut w = QueryWorkload::new(&s, QueryWorkloadConfig::default());
        let mut vip_queries = 0;
        let total = 1000;
        for q in w.take(total) {
            let all_vip = q.terms.iter().all(|t| {
                let id: u32 = std::str::from_utf8(&t[5..]).unwrap().parse().unwrap();
                vip_terms.contains(&id)
            });
            if all_vip {
                vip_queries += 1;
            }
        }
        // ~80% of queries draw exclusively from VIP terms.
        assert!(
            vip_queries as f64 / total as f64 > 0.6,
            "VIP share too low: {vip_queries}/{total}"
        );
    }

    #[test]
    fn corpus_without_vip_still_works() {
        let mut s = CrawlSimulator::new(CorpusConfig {
            num_docs: 50,
            vip_fraction: 0.0,
            ..CorpusConfig::tiny()
        });
        s.advance_round(1.0);
        let mut w = QueryWorkload::new(&s, QueryWorkloadConfig::default());
        assert!(!w.take(10).is_empty());
    }
}
