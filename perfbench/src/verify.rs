//! Answer verification: recompute answered requests with `LcaBuilder`
//! from the session's derived seeds, outside any timed window.

use std::collections::HashMap;
use std::sync::Arc;

use lca::prelude::{AlgorithmKind, LcaBuilder, QueryCtx};
use lca_serve::proto::QueryPayload;

use crate::workload::{dyn_query, SessionDef};

/// One answered request, as the daemon reported it.
#[derive(Debug, Clone)]
pub struct Answered {
    /// The session it named.
    pub session: Arc<SessionDef>,
    /// Its query.
    pub query: QueryPayload,
    /// The served answer.
    pub answer: bool,
    /// The served probe count.
    pub probes: u64,
}

fn key(q: QueryPayload) -> (u64, u64, bool) {
    match q {
        QueryPayload::Vertex(v) => (v, 0, false),
        QueryPayload::Edge(u, v) => (u, v, true),
    }
}

/// Recomputes every distinct `(session, query)` among `answered` and
/// returns one message per answered request that disagrees. Answers must
/// match for every kind; spanner kinds keep no state across queries, so
/// their served `probes` must also equal the local `ctx.spent()`.
pub fn mismatches(answered: &[Answered]) -> Vec<String> {
    let mut by_session: HashMap<&str, Vec<&Answered>> = HashMap::new();
    for a in answered {
        by_session.entry(&a.session.name).or_default().push(a);
    }
    let mut names: Vec<&str> = by_session.keys().copied().collect();
    names.sort_unstable();
    let mut out = Vec::new();
    for name in names {
        let items = &by_session[name];
        let def = &items[0].session;
        let oracle = def.oracle();
        let algo = LcaBuilder::new(def.kind)
            .seed(def.algo_seed())
            .build(&oracle);
        let stateless = matches!(def.kind, AlgorithmKind::Spanner(_));
        // Query → recomputed (answer, spent), or why recomputing failed.
        type Recomputed = Result<(bool, u64), String>;
        let mut expected: HashMap<(u64, u64, bool), Recomputed> = HashMap::new();
        for a in items {
            if a.session.as_ref() != def.as_ref() {
                out.push(format!("session {name:?} was served under two specs"));
                continue;
            }
            let want = expected.entry(key(a.query)).or_insert_with(|| {
                let ctx = QueryCtx::unlimited();
                algo.query_ctx(dyn_query(a.query), &ctx)
                    .map(|answer| (answer, ctx.spent()))
                    .map_err(|e| e.to_string())
            });
            match want {
                Ok((answer, _)) if *answer != a.answer => out.push(format!(
                    "{name} {:?}: served {} but recomputed {answer}",
                    a.query, a.answer
                )),
                Ok((_, spent)) if stateless && *spent != a.probes => out.push(format!(
                    "{name} {:?}: served {} probes but recomputed {spent}",
                    a.query, a.probes
                )),
                Ok(_) => {}
                Err(e) => out.push(format!(
                    "{name} {:?}: local recomputation failed: {e}",
                    a.query
                )),
            }
        }
    }
    out
}
