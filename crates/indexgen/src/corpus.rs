//! The document population and the crawl loop.

use crate::version::{IndexKind, IndexPair, IndexVersion};
use bytes::{BufMut, Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// VIP pages serve >80 % of queries from a few TB; non-VIP is the long
/// tail (§1.1.1). The tier mainly drives which pages a workload reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocTier {
    /// High-quality / popular pages, updated frequently.
    Vip,
    /// Everything else.
    Regular,
}

/// Of the pages that changed since the last crawl, the fraction whose
/// *term set* also changed (semantic change). The paper notes semantic
/// changes are rare.
const SEMANTIC_CHANGE_FRACTION: f64 = 0.05;

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct CorpusConfig {
    /// Number of documents in the crawl.
    pub num_docs: usize,
    /// Terms per document (drawn uniformly from the vocabulary).
    pub terms_per_doc: usize,
    /// Vocabulary size (number of distinct terms / inverted keys).
    pub vocab_size: usize,
    /// Fraction of documents in the VIP tier.
    pub vip_fraction: f64,
    /// Mean abstract length in bytes (paper workload: ~20 KB). Actual
    /// lengths vary ±50 % around the mean, deterministically per page.
    pub summary_mean_bytes: usize,
    /// Master seed; equal seeds produce byte-identical corpora.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            num_docs: 1000,
            terms_per_doc: 16,
            vocab_size: 4096,
            vip_fraction: 0.1,
            summary_mean_bytes: 20 * 1024,
            seed: 0xD1EC_70AD,
        }
    }
}

impl CorpusConfig {
    /// A small, fast corpus for unit tests.
    pub fn tiny() -> Self {
        CorpusConfig {
            num_docs: 64,
            terms_per_doc: 6,
            vocab_size: 128,
            summary_mean_bytes: 256,
            ..Default::default()
        }
    }
}

#[derive(Debug, Clone)]
struct DocState {
    url: Bytes,
    tier: DocTier,
    /// Bumped on every content change; the abstract derives from it.
    content_rev: u64,
    /// Term ids; change only on semantic changes.
    terms: Vec<u32>,
}

/// Simulates the crawler fleet: documents change between rounds, and each
/// round's full index data is rebuilt from the current document states.
#[derive(Debug)]
pub struct CrawlSimulator {
    cfg: CorpusConfig,
    docs: Vec<DocState>,
    version: u64,
    rng: StdRng,
}

impl CrawlSimulator {
    /// Builds the initial document population (version 0; no index emitted
    /// until the first [`CrawlSimulator::advance_round`]).
    pub fn new(cfg: CorpusConfig) -> Self {
        assert!(cfg.num_docs > 0 && cfg.vocab_size > 0 && cfg.terms_per_doc > 0);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let docs = (0..cfg.num_docs)
            .map(|i| {
                // 20-byte URL keys, like the paper's workload.
                let url = Bytes::from(format!("url:{:016x}", rng.gen::<u64>() ^ i as u64));
                debug_assert_eq!(url.len(), 20);
                let tier = if rng.gen_bool(cfg.vip_fraction) {
                    DocTier::Vip
                } else {
                    DocTier::Regular
                };
                let terms = draw_terms(&mut rng, cfg.terms_per_doc, cfg.vocab_size);
                DocState {
                    url,
                    tier,
                    content_rev: rng.gen(),
                    terms,
                }
            })
            .collect();
        CrawlSimulator {
            cfg,
            docs,
            version: 0,
            rng,
        }
    }

    /// The version number of the last emitted round.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Documents in the corpus.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// URLs of all documents (stable across rounds), with tiers.
    pub fn urls(&self) -> impl Iterator<Item = (&Bytes, DocTier)> {
        self.docs.iter().map(|d| (&d.url, d.tier))
    }

    /// Each document's current term set with its tier (query-workload
    /// generation samples from these).
    pub fn doc_terms(&self) -> impl Iterator<Item = (&[u32], DocTier)> {
        self.docs.iter().map(|d| (d.terms.as_slice(), d.tier))
    }

    /// Crawls one round: each document changed with probability
    /// `change_fraction` (so `1 - change_fraction` of summary entries will
    /// be byte-identical to the previous round), then rebuilds all three
    /// indices. Returns the new version's full index data.
    pub fn advance_round(&mut self, change_fraction: f64) -> IndexVersion {
        assert!((0.0..=1.0).contains(&change_fraction));
        self.version += 1;
        for i in 0..self.docs.len() {
            if self.rng.gen_bool(change_fraction) {
                self.docs[i].content_rev = self.rng.gen();
                if self.rng.gen_bool(SEMANTIC_CHANGE_FRACTION) {
                    self.docs[i].terms =
                        draw_terms(&mut self.rng, self.cfg.terms_per_doc, self.cfg.vocab_size);
                }
            }
        }
        self.build_indices()
    }

    fn build_indices(&self) -> IndexVersion {
        let mut forward = Vec::with_capacity(self.docs.len());
        let mut summary = Vec::with_capacity(self.docs.len());
        let mut postings: BTreeMap<u32, Vec<&Bytes>> = BTreeMap::new();
        let mut docs_sorted: Vec<&DocState> = self.docs.iter().collect();
        docs_sorted.sort_by(|a, b| a.url.cmp(&b.url));
        for doc in docs_sorted {
            // Forward: URL → sorted term list.
            let mut terms = doc.terms.clone();
            terms.sort_unstable();
            let mut fwd = BytesMut::with_capacity(terms.len() * 4);
            for t in &terms {
                fwd.put_u32_le(*t);
            }
            forward.push(IndexPair {
                kind: IndexKind::Forward,
                key: doc.url.clone(),
                value: fwd.freeze(),
            });
            // Summary: URL → abstract derived from (url, content_rev).
            summary.push(IndexPair {
                kind: IndexKind::Summary,
                key: doc.url.clone(),
                value: abstract_bytes(&doc.url, doc.content_rev, self.cfg.summary_mean_bytes),
            });
            for &t in &doc.terms {
                postings.entry(t).or_default().push(&doc.url);
            }
        }
        let inverted = postings
            .into_iter()
            .map(|(term, urls)| {
                let mut value = BytesMut::with_capacity(urls.len() * 20);
                for url in urls {
                    value.put_slice(url);
                }
                IndexPair {
                    kind: IndexKind::Inverted,
                    key: Bytes::from(format!("term:{term:08}")),
                    value: value.freeze(),
                }
            })
            .collect();
        IndexVersion {
            version: self.version,
            forward,
            summary,
            inverted,
        }
    }
}

fn draw_terms(rng: &mut StdRng, n: usize, vocab: usize) -> Vec<u32> {
    let mut terms: Vec<u32> = (0..n).map(|_| rng.gen_range(0..vocab as u32)).collect();
    terms.sort_unstable();
    terms.dedup();
    terms
}

/// Deterministic pseudo-random abstract for a (URL, revision) pair, with
/// length varying ±50 % around the configured mean.
fn abstract_bytes(url: &Bytes, rev: u64, mean: usize) -> Bytes {
    let mut h: u64 = rev ^ 0x9E37_79B9_7F4A_7C15;
    for &b in url.iter() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let half = (mean / 2).max(1);
    let len = half + (h % (mean as u64).max(1)) as usize;
    let mut out = BytesMut::with_capacity(len);
    let mut x = h | 1;
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.put_u64_le(x);
    }
    out.truncate(len);
    out.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic_for_seed() {
        let mut a = CrawlSimulator::new(CorpusConfig::tiny());
        let mut b = CrawlSimulator::new(CorpusConfig::tiny());
        for _ in 0..3 {
            let va = a.advance_round(0.3);
            let vb = b.advance_round(0.3);
            assert_eq!(va.summary, vb.summary);
            assert_eq!(va.inverted, vb.inverted);
            assert_eq!(va.forward, vb.forward);
        }
    }

    #[test]
    fn keys_are_twenty_bytes() {
        let mut sim = CrawlSimulator::new(CorpusConfig::tiny());
        let v = sim.advance_round(0.5);
        for p in &v.summary {
            assert_eq!(p.key.len(), 20);
        }
    }

    #[test]
    fn change_fraction_controls_duplication() {
        let cfg = CorpusConfig {
            num_docs: 2000,
            ..CorpusConfig::tiny()
        };
        let mut sim = CrawlSimulator::new(cfg);
        let v1 = sim.advance_round(1.0);
        let v2 = sim.advance_round(0.3);
        let prev: HashMap<&Bytes, &Bytes> = v1.summary.iter().map(|p| (&p.key, &p.value)).collect();
        let same = v2
            .summary
            .iter()
            .filter(|p| prev.get(&p.key) == Some(&&p.value))
            .count();
        let ratio = same as f64 / v2.summary.len() as f64;
        assert!(
            (0.62..=0.78).contains(&ratio),
            "expected ~70% duplicates, got {ratio:.2}"
        );
    }

    #[test]
    fn zero_change_round_is_fully_duplicate() {
        let mut sim = CrawlSimulator::new(CorpusConfig::tiny());
        let v1 = sim.advance_round(1.0);
        let v2 = sim.advance_round(0.0);
        assert_eq!(
            v1.summary.iter().map(|p| &p.value).collect::<Vec<_>>(),
            v2.summary.iter().map(|p| &p.value).collect::<Vec<_>>()
        );
        assert_eq!(v2.version, 2);
    }

    #[test]
    fn inverted_index_is_consistent_with_forward() {
        let mut sim = CrawlSimulator::new(CorpusConfig::tiny());
        let v = sim.advance_round(0.5);
        // Rebuild postings from the forward index and compare.
        let mut postings: BTreeMap<String, Vec<Bytes>> = BTreeMap::new();
        for p in &v.forward {
            let mut data = &p.value[..];
            while !data.is_empty() {
                let t = u32::from_le_bytes(data[..4].try_into().unwrap());
                postings
                    .entry(format!("term:{t:08}"))
                    .or_default()
                    .push(p.key.clone());
                data = &data[4..];
            }
        }
        assert_eq!(postings.len(), v.inverted.len());
        for p in &v.inverted {
            let key = String::from_utf8_lossy(&p.key).to_string();
            let urls = &postings[&key];
            let expect: Vec<u8> = urls.iter().flat_map(|u| u.to_vec()).collect();
            assert_eq!(&p.value[..], &expect[..], "postings for {key}");
        }
    }

    #[test]
    fn summary_sizes_track_mean() {
        let cfg = CorpusConfig {
            num_docs: 500,
            summary_mean_bytes: 1024,
            ..CorpusConfig::tiny()
        };
        let mut sim = CrawlSimulator::new(cfg);
        let v = sim.advance_round(1.0);
        let mean: f64 =
            v.summary.iter().map(|p| p.value.len() as f64).sum::<f64>() / v.summary.len() as f64;
        assert!((700.0..1400.0).contains(&mean), "mean {mean}");
        // Lengths vary between 0.5x and 1.5x the mean.
        for p in &v.summary {
            assert!(p.value.len() >= 512 && p.value.len() < 1536 + 8);
        }
    }

    #[test]
    fn vip_fraction_is_respected() {
        let cfg = CorpusConfig {
            num_docs: 2000,
            vip_fraction: 0.25,
            ..CorpusConfig::tiny()
        };
        let sim = CrawlSimulator::new(cfg);
        let vip = sim.urls().filter(|(_, t)| *t == DocTier::Vip).count();
        let ratio = vip as f64 / sim.num_docs() as f64;
        assert!((0.2..0.3).contains(&ratio), "vip ratio {ratio}");
    }
}
