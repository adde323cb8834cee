//! A minimal search front-end over the stored indices.
//!
//! §1.1.1: "A search request to a search engine is at first broken into
//! couples of terms. For each term, the corresponding URLs are retrieved
//! from the inverted indices. These URLs are ranked and only the most
//! related ones are returned to the users with their abstracts gathered
//! from the summary index."
//!
//! This module implements exactly that flow against a data center's Mint
//! cluster: posting-list fetches from the local inverted index, ranking
//! by matched-term count, and abstract fetches from the region's summary
//! host. It exists so the reproduction can *serve* what it stores — the
//! end the whole updating pipeline is for — and so consistency checks in
//! tests can compare full query results across data centers and versions.

use crate::pipeline::DirectLoad;
use crate::Result;
use bifrost::DataCenterId;
use bytes::Bytes;
use simclock::SimTime;
use std::collections::HashMap;

/// One ranked hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchHit {
    /// The document's URL.
    pub url: Bytes,
    /// Number of query terms the document matched.
    pub matched_terms: usize,
    /// The document's abstract, from the region's summary host.
    pub summary: Option<Bytes>,
}

/// A complete query response.
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// Ranked hits, best first.
    pub hits: Vec<SearchHit>,
    /// Total simulated storage latency spent on index lookups.
    pub latency: SimTime,
}

/// URL keys are fixed-width (20 bytes) in the corpus, so posting lists
/// are plain concatenations.
const URL_BYTES: usize = 20;

/// The ranking stage of a query: URLs ordered best-first, before any
/// abstracts are materialized.
///
/// A serving front-end splits the query here so it can satisfy the summary
/// stage from a cache (abstracts dominate read bytes) and only fall through
/// to the summary host on a miss.
#[derive(Debug, Clone)]
pub struct RankedQuery {
    /// `(url, matched_terms)`, best match count first, URL order breaking
    /// ties deterministically.
    pub ranked: Vec<(Bytes, usize)>,
    /// Simulated storage latency spent fetching posting lists.
    pub latency: SimTime,
}

/// The summary host serving `dc`'s region (slot 0 hosts abstracts).
pub fn summary_host_for(dc: DataCenterId) -> DataCenterId {
    DataCenterId {
        region: dc.region,
        slot: 0,
    }
}

impl DirectLoad {
    /// The ranking stage: fetches each term's posting list from `dc`'s
    /// inverted index at `version` and ranks URLs by how many query terms
    /// they match, keeping the top `top_k`.
    pub fn rank(
        &self,
        dc: DataCenterId,
        terms: &[&[u8]],
        version: u64,
        top_k: usize,
    ) -> Result<RankedQuery> {
        self.rank_costed(dc, terms, version, top_k, 0)
            .map(|(ranked, _)| ranked)
    }

    /// [`DirectLoad::rank`] on behalf of a traced request — every
    /// posting-list fetch carries a non-zero `trace_id` down through
    /// Mint's replicated read and the engine's traceback, so the
    /// assembled trace shows where a slow query spent its storage time —
    /// plus one [`obs::ReadAttribution`] per posting-list fetch: which
    /// Mint group owned each term and what each consulted replica spent.
    /// The serve front-end feeds these into its per-shard cost
    /// accumulators and hot-key sketches.
    pub fn rank_costed(
        &self,
        dc: DataCenterId,
        terms: &[&[u8]],
        version: u64,
        top_k: usize,
        trace_id: u64,
    ) -> Result<(RankedQuery, Vec<obs::ReadAttribution>)> {
        let mut matches: HashMap<Bytes, usize> = HashMap::new();
        let mut latency = SimTime::ZERO;
        let mut attributions = Vec::with_capacity(terms.len());
        for term in terms {
            let (postings, lat, attribution) =
                self.get_inverted_costed(dc, term, version, trace_id)?;
            latency += lat;
            attributions.push(attribution);
            let Some(postings) = postings else { continue };
            let mut cursor = postings;
            while cursor.len() >= URL_BYTES {
                let url = cursor.split_to(URL_BYTES);
                *matches.entry(url).or_insert(0) += 1;
            }
        }
        let mut ranked: Vec<(Bytes, usize)> = matches.into_iter().collect();
        // Best match count first; URL order breaks ties deterministically.
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(top_k);
        Ok((RankedQuery { ranked, latency }, attributions))
    }

    /// Serves a search query at `dc`: ranks via [`DirectLoad::rank`] and
    /// returns the top hits with abstracts from the same region's summary
    /// host.
    pub fn search(
        &self,
        dc: DataCenterId,
        terms: &[&[u8]],
        version: u64,
        top_k: usize,
    ) -> Result<SearchResponse> {
        let RankedQuery {
            ranked,
            mut latency,
        } = self.rank(dc, terms, version, top_k)?;
        // Abstracts come from the summary host in the same region.
        let summary_dc = summary_host_for(dc);
        let mut hits = Vec::with_capacity(ranked.len());
        for (url, matched_terms) in ranked {
            let (summary, lat) = self.get_summary(summary_dc, &url, version)?;
            latency += lat;
            hits.push(SearchHit {
                url,
                matched_terms,
                summary,
            });
        }
        Ok(SearchResponse { hits, latency })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DirectLoadConfig;
    use bytes::Buf;

    fn system() -> DirectLoad {
        let mut s = DirectLoad::new(DirectLoadConfig::small());
        s.run_version(1.0).unwrap();
        s
    }

    /// Decodes a forward-index value into term keys.
    fn terms_of(s: &DirectLoad, dc: DataCenterId, url: &[u8]) -> Vec<Vec<u8>> {
        let (fwd, _) = s.get_forward(dc, url, 1).unwrap();
        let mut data = fwd.expect("forward entry");
        let mut terms = Vec::new();
        while data.len() >= 4 {
            let t = data.get_u32_le();
            terms.push(format!("term:{t:08}").into_bytes());
        }
        terms
    }

    #[test]
    fn search_finds_the_document_for_its_own_terms() {
        let s = system();
        let dc = DataCenterId::all()[1];
        let url = s.urls()[5].clone();
        let term_keys = terms_of(&s, dc, &url);
        let term_refs: Vec<&[u8]> = term_keys.iter().map(|t| t.as_slice()).collect();
        let response = s.search(dc, &term_refs, 1, 10).unwrap();
        assert!(!response.hits.is_empty());
        assert!(response.latency > SimTime::ZERO);
        // The document matching *all* query terms ranks first.
        let top = &response.hits[0];
        assert_eq!(
            top.url.as_ref(),
            url.as_ref(),
            "own terms must find the doc"
        );
        assert_eq!(top.matched_terms, term_refs.len());
        // Its abstract matches the summary index.
        let summary_dc = DataCenterId {
            region: dc.region,
            slot: 0,
        };
        let (expect, _) = s.get_summary(summary_dc, &url, 1).unwrap();
        assert_eq!(top.summary, expect);
    }

    #[test]
    fn search_is_consistent_across_data_centers() {
        let s = system();
        let url = s.urls()[0].clone();
        let term_keys = terms_of(&s, DataCenterId::all()[0], &url);
        let term_refs: Vec<&[u8]> = term_keys.iter().map(|t| t.as_slice()).collect();
        let responses: Vec<Vec<(Bytes, usize)>> = DataCenterId::all()
            .into_iter()
            .map(|dc| {
                s.search(dc, &term_refs, 1, 5)
                    .unwrap()
                    .hits
                    .into_iter()
                    .map(|h| (h.url, h.matched_terms))
                    .collect()
            })
            .collect();
        for r in &responses[1..] {
            assert_eq!(r, &responses[0], "ranking differs between data centers");
        }
    }

    #[test]
    fn search_missing_term_is_empty() {
        let s = system();
        let response = s
            .search(DataCenterId::all()[0], &[b"term:99999999"], 1, 5)
            .unwrap();
        assert!(response.hits.is_empty());
    }

    #[test]
    fn search_at_deduplicated_version_traces_back() {
        let mut s = system();
        s.run_version(0.0).unwrap(); // version 2: everything deduplicated
        let dc = DataCenterId::all()[2];
        let url = s.urls()[3].clone();
        let term_keys = terms_of(&s, dc, &url);
        let term_refs: Vec<&[u8]> = term_keys.iter().map(|t| t.as_slice()).collect();
        let v1 = s.search(dc, &term_refs, 1, 5).unwrap();
        let v2 = s.search(dc, &term_refs, 2, 5).unwrap();
        let flat = |r: &SearchResponse| -> Vec<(Bytes, usize, Option<Bytes>)> {
            r.hits
                .iter()
                .map(|h| (h.url.clone(), h.matched_terms, h.summary.clone()))
                .collect()
        };
        assert_eq!(
            flat(&v1),
            flat(&v2),
            "identical content must rank identically"
        );
    }
}
