//! The answer oracle: a second crawl simulator with the same corpus
//! configuration replays the same `advance_round` fractions and keeps the
//! full (never deduplicated) index data of every retained version, so any
//! read the system serves can be compared with what it should return.

use bytes::Bytes;
use indexgen::{CorpusConfig, CrawlSimulator, IndexKind, IndexVersion};
use std::collections::{HashMap, VecDeque};

/// URL keys are fixed-width in the corpus; posting lists concatenate them.
const URL_BYTES: usize = 20;

/// One hit as both serving paths return it: url, matched terms, abstract.
pub type Hit = (Bytes, u32, Option<Bytes>);

struct Version {
    index: IndexVersion,
    inverted: HashMap<Bytes, Bytes>,
    summary: HashMap<Bytes, Bytes>,
}

pub struct Oracle {
    sim: CrawlSimulator,
    retained: usize,
    versions: VecDeque<Version>,
}

impl Oracle {
    pub fn new(corpus: CorpusConfig, retained: usize) -> Oracle {
        Oracle {
            sim: CrawlSimulator::new(corpus),
            retained,
            versions: VecDeque::new(),
        }
    }

    /// Crawls the next round exactly as the system under test does and
    /// drops the version that retention retires. Returns the new round's
    /// full index data.
    pub fn advance(&mut self, change_fraction: f64) -> &IndexVersion {
        let index = self.sim.advance_round(change_fraction);
        let map = |kind: IndexKind| -> HashMap<Bytes, Bytes> {
            index
                .pairs_of(kind)
                .iter()
                .map(|p| (p.key.clone(), p.value.clone()))
                .collect()
        };
        let version = Version {
            inverted: map(IndexKind::Inverted),
            summary: map(IndexKind::Summary),
            index,
        };
        self.versions.push_back(version);
        while self.versions.len() > self.retained {
            self.versions.pop_front();
        }
        &self.versions.back().expect("just pushed").index
    }

    pub fn version(&self) -> u64 {
        self.sim.version()
    }

    /// The retained versions' full index data, oldest first.
    pub fn retained(&self) -> impl Iterator<Item = &IndexVersion> {
        self.versions.iter().map(|v| &v.index)
    }

    /// The newest round's full index data.
    pub fn latest(&self) -> &IndexVersion {
        &self.versions.back().expect("no round crawled yet").index
    }

    /// What a term query must return at `version`: documents ranked by
    /// matched-term count, ties by URL, cut at `top_k`, each with its
    /// abstract. `None` when the version is no longer retained.
    pub fn search(&self, terms: &[Bytes], version: u64, top_k: usize) -> Option<Vec<Hit>> {
        let v = self.versions.iter().find(|v| v.index.version == version)?;
        let mut matches: HashMap<&[u8], u32> = HashMap::new();
        for term in terms {
            if let Some(postings) = v.inverted.get(term) {
                for url in postings.chunks_exact(URL_BYTES) {
                    *matches.entry(url).or_insert(0) += 1;
                }
            }
        }
        let mut ranked: Vec<(&[u8], u32)> = matches.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        ranked.truncate(top_k);
        Some(
            ranked
                .into_iter()
                .map(|(url, n)| {
                    let url = Bytes::copy_from_slice(url);
                    let summary = v.summary.get(&url).cloned();
                    (url, n, summary)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_keeps_the_retention_window_and_ranks_like_the_engine() {
        let mut o = Oracle::new(CorpusConfig::tiny(), 2);
        o.advance(1.0);
        o.advance(0.3);
        o.advance(0.3);
        assert_eq!(o.version(), 3);
        assert_eq!(o.retained().map(|v| v.version).collect::<Vec<_>>(), [2, 3]);
        let term = o.latest().inverted[0].key.clone();
        assert!(o.search(std::slice::from_ref(&term), 1, 5).is_none());
        let hits = o
            .search(std::slice::from_ref(&term), 3, 5)
            .expect("retained");
        assert!(!hits.is_empty() && hits.len() <= 5);
        assert!(hits.iter().all(|(_, n, s)| *n == 1 && s.is_some()));
        let urls: Vec<_> = hits.iter().map(|h| h.0.clone()).collect();
        let mut sorted = urls.clone();
        sorted.sort();
        assert_eq!(urls, sorted, "equal match counts break ties by url");
    }
}
