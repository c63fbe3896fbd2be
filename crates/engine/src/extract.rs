//! The one JSON evaluation path.
//!
//! Every `get_json_object` the engine evaluates — in a filter, projection,
//! aggregate, join key or sort key, and in the Maxson cache builder and the
//! online-LRU miss fill, which evaluate the same expression — is answered
//! by a [`JsonExtractor`] through a per-row [`RowSlots`]. The extractor is
//! built once per operator (or pipeline segment) from the compiled
//! expressions and the [`ExecOptions`] evaluation policy, which is two
//! choices:
//!
//! * **which parser runs** ([`ExecOptions::parser`]): one full DOM walk in
//!   Jackson mode ([`maxson_json::get_json_objects`]), one structural index
//!   in Mison mode ([`MisonProjector::project_paths`]), one typed tape in
//!   Tape mode ([`maxson_json::tape::project_paths`]). The `match` choosing
//!   between them is the workspace's only parser dispatch;
//! * **whether a row's parse is shared** ([`ExecOptions::shared_parse`]).
//!   With the memo on, the extractor groups every distinct `(column, path)`
//!   pair by JSON column and the row's slots parse each document **at most
//!   once per column**, answering every later path from the filled slots.
//!   Slots hold `Arc<str>` values, so a path evaluated in both the filter
//!   and the projection clones a refcount, not the text. With the memo off,
//!   every access parses the document for the one path asked for — the
//!   naive one-parse-per-call baseline of the paper's Fig. 3.
//!
//! Laziness is preserved: slots fill on the *first* path access for a row,
//! so rows skipped by SARG/row-group pruning never parse, and a predicate
//! that decides a row without touching any JSON path (short-circuit on a
//! raw column) parses nothing. Both policies give byte-identical results
//! because the multi-path parser entry points answer each path exactly as
//! their single-path forms do; only the number of parses differs.
//!
//! Accounting: every evaluation charges [`ExecMetrics::parse_calls`]; every
//! actual parse charges [`ExecMetrics::docs_parsed`], parse wall time,
//! tape skips and structural-bitmap builds once. The ratio of the first two
//! counters is the intra-query dedup factor surfaced by
//! `ExecMetrics::summary` and the bench reports.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use maxson_json::mison::MisonProjector;
use maxson_json::tape::{self, TapeStats};
use maxson_json::JsonPath;

use crate::exec::ExecOptions;
use crate::expr::{Expr, JsonParserKind};
use crate::metrics::ExecMetrics;

/// One extraction result per path: the rendered value, or `None` on a miss.
type Extracted = Vec<Option<Arc<str>>>;

/// All paths a query needs from one JSON column, in first-seen plan order.
#[derive(Debug)]
struct ColumnGroup {
    /// Input column index holding the JSON string.
    column: usize,
    /// Distinct compiled paths over that column.
    paths: Vec<JsonPath>,
}

/// The deduplicated `(column, path)` extraction sites of one operator (or
/// scan-pipeline segment) plus the policy evaluating them. Shared across
/// all rows — and, being read-only, across all split tasks — while each
/// row gets its own [`RowSlots`].
#[derive(Debug)]
pub struct JsonExtractor {
    groups: Vec<ColumnGroup>,
    parser: JsonParserKind,
    shared_parse: bool,
}

impl JsonExtractor {
    /// Collect every distinct `(column, path)` pair from the given compiled
    /// expression trees, to be evaluated under `opts`' parser and parse
    /// sharing. Maxson-cached paths were already compiled to plain `Column`
    /// placeholders, so only *residual* uncached paths arrive here —
    /// composition with the combiner is automatic.
    pub fn new<'a>(exprs: impl IntoIterator<Item = &'a Expr>, opts: &ExecOptions) -> JsonExtractor {
        let mut groups: Vec<ColumnGroup> = Vec::new();
        for e in exprs {
            e.walk(&mut |node| {
                if let Expr::GetJsonObject { column, path } = node {
                    match groups.iter_mut().find(|g| g.column == *column) {
                        Some(g) => {
                            if !g.paths.contains(path) {
                                g.paths.push(path.clone());
                            }
                        }
                        None => groups.push(ColumnGroup {
                            column: *column,
                            paths: vec![path.clone()],
                        }),
                    }
                }
            });
        }
        JsonExtractor {
            groups,
            parser: opts.parser,
            shared_parse: opts.shared_parse,
        }
    }

    /// Locate a `(column, path)` pair: `(group index, path index)`.
    fn lookup(&self, column: usize, path: &JsonPath) -> Option<(usize, usize)> {
        let gi = self.groups.iter().position(|g| g.column == column)?;
        let pi = self.groups[gi].paths.iter().position(|p| p == path)?;
        Some((gi, pi))
    }

    /// Parse `json` once and evaluate every path in `paths` against it
    /// (entry `i` answers `paths[i]`; an invalid document answers all
    /// `None`), charging one parse to `metrics`.
    fn parse(&self, json: &str, paths: &[JsonPath], metrics: &mut ExecMetrics) -> Extracted {
        let kernels_before = maxson_json::kernels::thread_build_stats();
        let start = Instant::now();
        let mut stats = TapeStats::default();
        let values = match self.parser {
            JsonParserKind::Jackson => maxson_json::get_json_objects(json, paths)
                .into_iter()
                .map(|v| v.map(Arc::from))
                .collect(),
            JsonParserKind::Mison => MisonProjector::project_paths(json, paths)
                .into_iter()
                .map(|v| v.map(Arc::from))
                .collect(),
            JsonParserKind::Tape => tape::project_paths(json, paths, &mut stats),
        };
        let spent = start.elapsed();
        metrics.parse += spent;
        metrics.parse_wall += spent;
        metrics.docs_parsed += 1;
        metrics.nodes_skipped += stats.nodes_skipped;
        metrics.charge_bitmap_builds(kernels_before);
        values
    }
}

/// Per-row lazily-filled extraction slots over a shared [`JsonExtractor`].
///
/// Created fresh for each row; interior mutability keeps the evaluator
/// signature by-shared-reference so `&RowSlots` threads through expression
/// recursion without borrow gymnastics.
pub struct RowSlots<'e> {
    extractor: &'e JsonExtractor,
    /// One entry per column group when the parse is shared (empty
    /// otherwise); `None` until the first path access for this row
    /// triggers the (single) parse.
    filled: RefCell<Vec<Option<Extracted>>>,
}

impl<'e> RowSlots<'e> {
    /// Empty slots for one row.
    pub fn new(extractor: &'e JsonExtractor) -> Self {
        let groups = if extractor.shared_parse {
            extractor.groups.len()
        } else {
            0
        };
        RowSlots {
            extractor,
            filled: RefCell::new(vec![None; groups]),
        }
    }

    /// Answer one `(column, path)` evaluation over this row's `json`
    /// document: the extracted value, or `None` on a miss. Returns `None`
    /// outright when the pair is not covered by the extractor (a planner
    /// bug the caller reports).
    ///
    /// Every covered access charges `parse_calls`. With the parse shared,
    /// the first access per column parses the document and later ones
    /// clone a refcount; without, every access parses.
    pub fn get(
        &self,
        json: &str,
        column: usize,
        path: &JsonPath,
        metrics: &mut ExecMetrics,
    ) -> Option<Option<Arc<str>>> {
        let (gi, pi) = self.extractor.lookup(column, path)?;
        metrics.parse_calls += 1;
        metrics.charge_path_extract(path.text());
        if !self.extractor.shared_parse {
            let mut values = self
                .extractor
                .parse(json, std::slice::from_ref(path), metrics);
            return values.pop();
        }
        let mut filled = self.filled.borrow_mut();
        let values = filled[gi].get_or_insert_with(|| {
            self.extractor
                .parse(json, &self.extractor.groups[gi].paths, metrics)
        });
        Some(values[pi].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::BinaryOp;
    use maxson_storage::Cell;

    fn jp(column: usize, path: &str) -> Expr {
        Expr::GetJsonObject {
            column,
            path: JsonPath::parse(path).unwrap(),
        }
    }

    #[test]
    fn collector_dedupes_pairs_and_groups_by_column() {
        let filter = Expr::Binary {
            left: Box::new(jp(0, "$.a")),
            op: BinaryOp::Gt,
            right: Box::new(Expr::Literal(Cell::Int(1))),
        };
        let select = [jp(0, "$.a"), jp(0, "$.b"), jp(2, "$.a")];
        let ex = JsonExtractor::new(
            std::iter::once(&filter).chain(select.iter()),
            &ExecOptions::serial(),
        );
        assert_eq!(ex.groups.len(), 2);
        let paths: usize = ex.groups.iter().map(|g| g.paths.len()).sum();
        assert_eq!(paths, 3, "repeated $.a on column 0 deduped");
        assert!(ex.lookup(0, &JsonPath::parse("$.b").unwrap()).is_some());
        assert!(ex.lookup(2, &JsonPath::parse("$.a").unwrap()).is_some());
        assert!(ex.lookup(2, &JsonPath::parse("$.b").unwrap()).is_none());
    }

    #[test]
    fn no_json_paths_covers_nothing() {
        let e = Expr::Column(3);
        let ex = JsonExtractor::new([&e], &ExecOptions::serial());
        assert!(ex.groups.is_empty());
    }

    /// Both policies answer every path identically; only the number of
    /// parses differs — one per row shared, one per access without.
    #[test]
    fn slots_parse_once_per_row_shared_and_once_per_call_without() {
        let exprs = [jp(0, "$.a"), jp(0, "$.b"), jp(0, "$.missing")];
        let json = r#"{"a": 1, "b": "x"}"#;
        for parser in [
            JsonParserKind::Jackson,
            JsonParserKind::Mison,
            JsonParserKind::Tape,
        ] {
            for (shared_parse, parses) in [(true, 1), (false, 3)] {
                let opts = ExecOptions::serial()
                    .with_parser(parser)
                    .with_shared_parse(shared_parse);
                let ex = JsonExtractor::new(exprs.iter(), &opts);
                let mut m = ExecMetrics::default();
                let slots = RowSlots::new(&ex);
                let mut get = |p: &str| slots.get(json, 0, &JsonPath::parse(p).unwrap(), &mut m);
                assert_eq!(get("$.a"), Some(Some("1".into())));
                assert_eq!(get("$.b"), Some(Some("x".into())));
                assert_eq!(get("$.missing"), Some(None));
                // Uncovered pairs are refused, not parsed.
                assert!(slots
                    .get(json, 1, &JsonPath::parse("$.a").unwrap(), &mut m)
                    .is_none());
                assert_eq!(m.docs_parsed, parses, "{parser:?} shared={shared_parse}");
                assert_eq!(m.parse_calls, 3);
            }
        }
    }

    #[test]
    fn slots_stay_lazy_until_first_access() {
        let exprs = [jp(0, "$.a")];
        let ex = JsonExtractor::new(exprs.iter(), &ExecOptions::serial());
        let m = ExecMetrics::default();
        let _slots = RowSlots::new(&ex);
        assert_eq!(m.docs_parsed, 0, "constructing slots must not parse");
        drop(_slots);
        assert_eq!(m.parse_calls, 0);
    }
}
