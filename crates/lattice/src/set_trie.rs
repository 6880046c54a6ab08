//! Prefix tree ("set-trie") over column combinations, after §5.4 of the paper.
//!
//! MUDS performs a large number of *subset* look-ups (all minimal UCCs that
//! are subsets of a left-hand side, for shadowed-FD pruning) and *superset*
//! look-ups (all minimal UCCs that contain a connector, for the connector
//! look-up of §5.1). A linear scan over the UCC list is quadratic in the
//! number of stored sets; the prefix tree makes both operations proportional
//! to the number of matching paths.
//!
//! The trie stores each [`ColumnSet`] as its sorted sequence of column
//! indices, exactly like Figure 5 in the paper: level 1 holds the first
//! column of every stored combination, level 2 the second column of
//! combinations sharing the first, and so on.

use crate::ColumnSet;

/// Arena index of a trie node.
type NodeId = u32;

#[derive(Debug, Clone, Default)]
struct Node {
    /// Sorted `(column, child)` pairs.
    children: Vec<(u16, NodeId)>,
    /// True iff a stored set ends at this node.
    terminal: bool,
}

impl Node {
    fn child(&self, col: u16) -> Option<NodeId> {
        self.children.binary_search_by_key(&col, |&(c, _)| c).ok().map(|i| self.children[i].1)
    }
}

/// A prefix tree of [`ColumnSet`]s supporting subset and superset queries.
///
/// ```
/// use muds_lattice::{ColumnSet, SetTrie};
/// let mut trie = SetTrie::new();
/// trie.insert(ColumnSet::from_indices([0, 2]));
/// trie.insert(ColumnSet::from_indices([1]));
/// let query = ColumnSet::from_indices([0, 1, 2]);
/// assert_eq!(trie.subsets_of(&query).len(), 2);
/// assert!(trie.contains_subset_of(&query));
/// ```
#[derive(Debug, Clone)]
pub struct SetTrie {
    nodes: Vec<Node>,
    len: usize,
    meters: TrieMeters,
}

/// Ambient-registry counter handles, bound once per trie. Clones share the
/// handles, so a copied trie keeps counting into the same run totals.
#[derive(Debug, Clone)]
struct TrieMeters {
    /// Trie nodes visited during subset/superset searches.
    node_probes: muds_obs::Counter,
    /// Subset queries answered (`contains_subset_of`, `subsets_of`).
    subset_queries: muds_obs::Counter,
    /// Superset queries answered (`contains_superset_of`, `supersets_of`).
    superset_queries: muds_obs::Counter,
}

impl TrieMeters {
    fn bind() -> Self {
        TrieMeters {
            node_probes: muds_obs::counter("trie.node_probes"),
            subset_queries: muds_obs::counter("trie.subset_queries"),
            superset_queries: muds_obs::counter("trie.superset_queries"),
        }
    }
}

impl Default for SetTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl SetTrie {
    /// Creates an empty trie.
    pub fn new() -> Self {
        SetTrie { nodes: vec![Node::default()], len: 0, meters: TrieMeters::bind() }
    }

    /// Builds a trie from an iterator of sets.
    pub fn from_sets<I: IntoIterator<Item = ColumnSet>>(sets: I) -> Self {
        let mut t = Self::new();
        for s in sets {
            t.insert(s);
        }
        t
    }

    /// Number of stored sets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no sets are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `set`. Returns `true` if it was not present before.
    ///
    /// The empty set is storable; it is a subset of every query.
    pub fn insert(&mut self, set: ColumnSet) -> bool {
        let mut node = 0 as NodeId;
        for col in set.iter() {
            let col = col as u16;
            node = match self.nodes[node as usize].child(col) {
                Some(c) => c,
                None => {
                    let id = self.nodes.len() as NodeId;
                    self.nodes.push(Node::default());
                    let n = &mut self.nodes[node as usize];
                    let pos = n.children.partition_point(|&(c, _)| c < col);
                    n.children.insert(pos, (col, id));
                    id
                }
            };
        }
        let t = &mut self.nodes[node as usize].terminal;
        let fresh = !*t;
        *t = true;
        if fresh {
            self.len += 1;
        }
        fresh
    }

    /// Removes `set` if present; returns whether it was stored.
    ///
    /// Nodes are not reclaimed (the profiling algorithms remove rarely and
    /// re-insert along the same paths).
    pub fn remove(&mut self, set: &ColumnSet) -> bool {
        let mut node = 0 as NodeId;
        for col in set.iter() {
            match self.nodes[node as usize].child(col as u16) {
                Some(c) => node = c,
                None => return false,
            }
        }
        let t = &mut self.nodes[node as usize].terminal;
        let was = *t;
        *t = false;
        if was {
            self.len -= 1;
        }
        was
    }

    /// Exact membership test.
    pub fn contains(&self, set: &ColumnSet) -> bool {
        let mut node = 0 as NodeId;
        for col in set.iter() {
            match self.nodes[node as usize].child(col as u16) {
                Some(c) => node = c,
                None => return false,
            }
        }
        self.nodes[node as usize].terminal
    }

    /// True iff some stored set is a subset of `query` (⊆, not strict).
    ///
    /// The search descends only into children whose column is in `query`
    /// — O(1) bitset tests against the node's (typically few) children,
    /// rather than probing the trie for each of the query's columns. On
    /// wide queries (the 256-column boundary) the latter is two orders of
    /// magnitude slower, and this predicate is the inner loop of every
    /// lattice walk.
    pub fn contains_subset_of(&self, query: &ColumnSet) -> bool {
        self.meters.subset_queries.inc();
        self.subset_search(0, query)
    }

    /// True iff some stored set is a **proper** subset of `query`.
    pub fn contains_proper_subset_of(&self, query: &ColumnSet) -> bool {
        self.subsets_of(query).iter().any(|s| s != query)
    }

    fn subset_search(&self, node: NodeId, query: &ColumnSet) -> bool {
        self.meters.node_probes.inc();
        let n = &self.nodes[node as usize];
        if n.terminal {
            return true;
        }
        n.children
            .iter()
            .any(|&(c, child)| query.contains(c as usize) && self.subset_search(child, query))
    }

    /// All stored sets that are subsets of `query` (including `query` itself
    /// if stored).
    pub fn subsets_of(&self, query: &ColumnSet) -> Vec<ColumnSet> {
        self.meters.subset_queries.inc();
        let mut out = Vec::new();
        let mut path = ColumnSet::empty();
        self.collect_subsets(0, query, &mut path, &mut out);
        out
    }

    fn collect_subsets(
        &self,
        node: NodeId,
        query: &ColumnSet,
        path: &mut ColumnSet,
        out: &mut Vec<ColumnSet>,
    ) {
        self.meters.node_probes.inc();
        let n = &self.nodes[node as usize];
        if n.terminal {
            out.push(*path);
        }
        for &(c, child) in &n.children {
            if query.contains(c as usize) {
                path.insert(c as usize);
                self.collect_subsets(child, query, path, out);
                path.remove(c as usize);
            }
        }
    }

    /// True iff some stored set is a superset of `query` (⊇, not strict).
    pub fn contains_superset_of(&self, query: &ColumnSet) -> bool {
        self.meters.superset_queries.inc();
        let cols: Vec<u16> = query.iter().map(|c| c as u16).collect();
        self.superset_search(0, &cols)
    }

    fn superset_search(&self, node: NodeId, remaining: &[u16]) -> bool {
        self.meters.node_probes.inc();
        let n = &self.nodes[node as usize];
        match remaining.first() {
            None => {
                n.terminal || n.children.iter().any(|&(_, c)| self.superset_search(c, remaining))
            }
            Some(&next) => n.children.iter().take_while(|&&(c, _)| c <= next).any(|&(c, child)| {
                let rest = if c == next { &remaining[1..] } else { remaining };
                self.superset_search(child, rest)
            }),
        }
    }

    /// All stored sets that are supersets of `query`.
    ///
    /// This is the *connector look-up* primitive of §5.1: given a connector,
    /// return every minimal UCC containing it.
    pub fn supersets_of(&self, query: &ColumnSet) -> Vec<ColumnSet> {
        self.meters.superset_queries.inc();
        let cols: Vec<u16> = query.iter().map(|c| c as u16).collect();
        let mut out = Vec::new();
        let mut path = ColumnSet::empty();
        self.collect_supersets(0, &cols, &mut path, &mut out);
        out
    }

    fn collect_supersets(
        &self,
        node: NodeId,
        remaining: &[u16],
        path: &mut ColumnSet,
        out: &mut Vec<ColumnSet>,
    ) {
        self.meters.node_probes.inc();
        let n = &self.nodes[node as usize];
        if remaining.is_empty() && n.terminal {
            out.push(*path);
        }
        let limit = remaining.first().copied();
        for &(c, child) in &n.children {
            // Children are sorted; once we pass the next required column the
            // requirement can no longer be satisfied on this branch.
            if let Some(next) = limit {
                if c > next {
                    break;
                }
                let rest = if c == next { &remaining[1..] } else { remaining };
                path.insert(c as usize);
                self.collect_supersets(child, rest, path, out);
                path.remove(c as usize);
            } else {
                path.insert(c as usize);
                self.collect_supersets(child, remaining, path, out);
                path.remove(c as usize);
            }
        }
    }

    /// All stored sets, in trie order.
    pub fn iter_sets(&self) -> Vec<ColumnSet> {
        self.supersets_of(&ColumnSet::empty())
    }
}

/// Maintains the family of *minimal* sets seen so far (e.g. minimal UCCs,
/// minimal FD left-hand sides).
///
/// `add` keeps the family an antichain: inserting a superset of a stored set
/// is a no-op; inserting a subset evicts the dominated supersets.
#[derive(Debug, Clone, Default)]
pub struct MinimalSetFamily {
    trie: SetTrie,
    sets: Vec<ColumnSet>,
}

impl MinimalSetFamily {
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `set`, maintaining minimality. Returns `true` if the family
    /// changed (i.e. `set` was not dominated by an existing member).
    pub fn add(&mut self, set: ColumnSet) -> bool {
        if self.trie.contains_subset_of(&set) {
            return false;
        }
        // Evict stored supersets of the new minimal set.
        self.sets.retain(|s| {
            if set.is_proper_subset_of(s) {
                self.trie.remove(s);
                false
            } else {
                true
            }
        });
        self.trie.insert(set);
        self.sets.push(set);
        true
    }

    /// True iff a stored set is ⊆ `query` — i.e. `query` is dominated.
    pub fn dominates(&self, query: &ColumnSet) -> bool {
        self.trie.contains_subset_of(query)
    }

    /// Access the underlying trie (for subset/superset enumeration).
    pub fn trie(&self) -> &SetTrie {
        &self.trie
    }

    /// The stored antichain.
    pub fn sets(&self) -> &[ColumnSet] {
        &self.sets
    }

    pub fn len(&self) -> usize {
        self.sets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

/// Maintains the family of *maximal* sets seen so far (e.g. maximal
/// non-UCCs). Dual of [`MinimalSetFamily`].
///
/// Subset queries (`dominates`) are answered by one of two
/// representations, chosen by universe width at construction:
///
/// * **Narrow universes (≤ `COMPLEMENT_TRIE_MAX_UNIVERSE` columns)**: a
///   trie over the *complements* of the stored sets — `X ⊆ N ⟺ ¬N ⊆ ¬X`,
///   so "is the query inside any stored set" becomes a subset search on
///   complements, sub-linear in the family size. This matters because the
///   random walks and the shadowed-FD phase consult this structure
///   millions of times on families of thousands of sets.
/// * **Wide universes**: a linear scan with bitset subset tests. On a
///   255-column universe the complements of typical (small-to-mid)
///   members are *dense* ~200-column sets; a failed subset search with a
///   dense query must traverse essentially the whole complement trie, and
///   every genuinely new member pays that worst case in `add`. A subset
///   test is four words of bit arithmetic, so scanning even a few
///   thousand members is orders of magnitude cheaper than the degenerate
///   trie traversal (measured 25–40× on the walk engine at the 256-column
///   boundary).
#[derive(Debug, Clone)]
pub struct MaximalSetFamily {
    sets: Vec<ColumnSet>,
    /// `Some` iff the universe is narrow enough for the complement trie.
    complements: Option<SetTrie>,
    universe: ColumnSet,
}

/// Widest universe for which [`MaximalSetFamily`] keeps a complement trie.
const COMPLEMENT_TRIE_MAX_UNIVERSE: usize = 64;

impl Default for MaximalSetFamily {
    fn default() -> Self {
        Self::new()
    }
}

impl MaximalSetFamily {
    /// A family over the full 256-column universe. Prefer
    /// [`Self::with_universe`] when the column count is known — shorter
    /// complements mean shorter trie paths.
    pub fn new() -> Self {
        Self::with_universe(ColumnSet::full(crate::MAX_COLUMNS))
    }

    /// A family whose members (and queries) are subsets of `universe`.
    pub fn with_universe(universe: ColumnSet) -> Self {
        let complements =
            (universe.cardinality() <= COMPLEMENT_TRIE_MAX_UNIVERSE).then(SetTrie::new);
        MaximalSetFamily { sets: Vec::new(), complements, universe }
    }

    fn complement(&self, set: &ColumnSet) -> ColumnSet {
        self.universe.difference(set)
    }

    /// Inserts `set`, maintaining maximality. Returns `true` if the family
    /// changed.
    pub fn add(&mut self, set: ColumnSet) -> bool {
        debug_assert!(set.is_subset_of(&self.universe), "set outside family universe");
        if self.dominates(&set) {
            return false;
        }
        let mut removed: Vec<ColumnSet> = Vec::new();
        self.sets.retain(|s| {
            if s.is_proper_subset_of(&set) {
                removed.push(*s);
                false
            } else {
                true
            }
        });
        if let Some(trie) = &mut self.complements {
            for s in removed {
                let comp = self.universe.difference(&s);
                trie.remove(&comp);
            }
            trie.insert(self.universe.difference(&set));
        }
        self.sets.push(set);
        true
    }

    /// True iff `query` ⊆ some stored set — i.e. `query` is dominated.
    pub fn dominates(&self, query: &ColumnSet) -> bool {
        match &self.complements {
            Some(trie) => trie.contains_subset_of(&self.complement(query)),
            None => self.sets.iter().any(|s| query.is_subset_of(s)),
        }
    }

    pub fn sets(&self) -> &[ColumnSet] {
        &self.sets
    }

    pub fn len(&self) -> usize {
        self.sets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cs(cols: &[usize]) -> ColumnSet {
        ColumnSet::from_indices(cols.iter().copied())
    }

    /// The trie from Figure 5 of the paper.
    fn paper_trie() -> SetTrie {
        SetTrie::from_sets([
            cs(&[1, 3, 8]),
            cs(&[1, 5]),
            cs(&[1, 10]),
            cs(&[1, 12]),
            cs(&[7]),
            cs(&[15, 18]),
            cs(&[1, 11, 17]),
        ])
    }

    #[test]
    fn insert_and_contains() {
        let t = paper_trie();
        assert_eq!(t.len(), 7);
        assert!(t.contains(&cs(&[1, 3, 8])));
        assert!(t.contains(&cs(&[7])));
        assert!(!t.contains(&cs(&[1, 3]))); // prefix of a stored set, not stored
        assert!(!t.contains(&cs(&[3, 8])));
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut t = paper_trie();
        assert!(!t.insert(cs(&[7])));
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn remove_only_removes_exact() {
        let mut t = paper_trie();
        assert!(t.remove(&cs(&[1, 5])));
        assert!(!t.contains(&cs(&[1, 5])));
        assert!(t.contains(&cs(&[1, 3, 8])));
        assert_eq!(t.len(), 6);
        assert!(!t.remove(&cs(&[1, 5])));
    }

    #[test]
    fn subset_queries() {
        let t = paper_trie();
        // Query {1,5,10}: stored subsets are {1,5} and {1,10}.
        let q = cs(&[1, 5, 10]);
        let mut subs = t.subsets_of(&q);
        subs.sort();
        assert_eq!(subs, vec![cs(&[1, 5]), cs(&[1, 10])]);
        assert!(t.contains_subset_of(&q));
        assert!(!t.contains_subset_of(&cs(&[2, 3, 8])));
    }

    #[test]
    fn subset_query_includes_exact_match() {
        let t = paper_trie();
        let q = cs(&[7]);
        assert_eq!(t.subsets_of(&q), vec![q]);
        assert!(t.contains_subset_of(&q));
        assert!(!t.contains_proper_subset_of(&q));
    }

    #[test]
    fn superset_queries_connector_lookup() {
        let t = paper_trie();
        // Connector {1}: every stored set starting with 1.
        let mut sups = t.supersets_of(&cs(&[1]));
        sups.sort();
        let mut want =
            vec![cs(&[1, 3, 8]), cs(&[1, 5]), cs(&[1, 10]), cs(&[1, 11, 17]), cs(&[1, 12])];
        want.sort();
        assert_eq!(sups, want);
        assert!(t.contains_superset_of(&cs(&[11])));
        assert!(t.contains_superset_of(&cs(&[1, 17])));
        assert!(!t.contains_superset_of(&cs(&[3, 5])));
    }

    #[test]
    fn paper_connector_lookup_example() {
        // Table 2 of the paper: UCCs {AFG, BDFG, DEF, CEFG}, connector FG.
        // Matching UCCs: AFG, BDFG, CEFG; union of non-connector columns is
        // ABCDE minus... = {A, B, D, C, E}.
        let a = 0;
        let b = 1;
        let c = 2;
        let d = 3;
        let e = 4;
        let f = 5;
        let g = 6;
        let t = SetTrie::from_sets([
            cs(&[a, f, g]),
            cs(&[b, d, f, g]),
            cs(&[d, e, f]),
            cs(&[c, e, f, g]),
        ]);
        let connector = cs(&[f, g]);
        let matched = t.supersets_of(&connector);
        assert_eq!(matched.len(), 3);
        let mut union = ColumnSet::empty();
        for m in &matched {
            union = union.union(&m.difference(&connector));
        }
        assert_eq!(union, cs(&[a, b, c, d, e]));
    }

    #[test]
    fn empty_set_is_subset_of_everything() {
        let mut t = SetTrie::new();
        t.insert(ColumnSet::empty());
        assert!(t.contains_subset_of(&cs(&[3])));
        assert!(t.contains_subset_of(&ColumnSet::empty()));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_trie_matches_nothing() {
        let t = SetTrie::new();
        assert!(!t.contains_subset_of(&ColumnSet::full(10)));
        assert!(!t.contains_superset_of(&ColumnSet::empty()));
        assert!(t.subsets_of(&ColumnSet::full(10)).is_empty());
    }

    #[test]
    fn supersets_of_empty_enumerates_all() {
        let t = paper_trie();
        assert_eq!(t.iter_sets().len(), 7);
    }

    #[test]
    fn minimal_family_prunes_supersets() {
        let mut f = MinimalSetFamily::new();
        assert!(f.add(cs(&[1, 2, 3])));
        assert!(f.add(cs(&[4])));
        // Superset of {4} rejected.
        assert!(!f.add(cs(&[4, 5])));
        // Subset of {1,2,3} evicts it.
        assert!(f.add(cs(&[1, 2])));
        let mut sets = f.sets().to_vec();
        sets.sort();
        assert_eq!(sets, vec![cs(&[1, 2]), cs(&[4])]);
        assert!(f.dominates(&cs(&[1, 2, 9])));
        assert!(!f.dominates(&cs(&[1, 3])));
    }

    #[test]
    fn maximal_family_prunes_subsets() {
        let mut f = MaximalSetFamily::new();
        assert!(f.add(cs(&[1, 2])));
        assert!(!f.add(cs(&[1]))); // subset rejected
        assert!(f.add(cs(&[1, 2, 3]))); // evicts {1,2}
        assert_eq!(f.sets(), &[cs(&[1, 2, 3])]);
        assert!(f.dominates(&cs(&[2, 3])));
        assert!(!f.dominates(&cs(&[4])));
    }

    #[test]
    fn queries_meter_into_ambient_registry() {
        let metrics = muds_obs::Metrics::new();
        let _guard = metrics.install();
        let t = paper_trie();
        assert!(t.contains_subset_of(&cs(&[1, 5, 10])));
        assert!(t.contains_superset_of(&cs(&[1])));
        let _ = t.subsets_of(&cs(&[1, 5]));
        let snap = metrics.drain_snapshot();
        assert_eq!(snap.counter("trie.subset_queries"), 2);
        assert_eq!(snap.counter("trie.superset_queries"), 1);
        assert!(snap.counter("trie.node_probes") > 0);
    }

    #[test]
    fn large_randomized_cross_check_against_linear_scan() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        let mut stored: Vec<ColumnSet> = Vec::new();
        let mut trie = SetTrie::new();
        for _ in 0..300 {
            let k = rng.gen_range(0..5);
            let s = ColumnSet::from_indices((0..k).map(|_| rng.gen_range(0..12)));
            if trie.insert(s) {
                stored.push(s);
            }
        }
        for _ in 0..200 {
            let k = rng.gen_range(0..7);
            let q = ColumnSet::from_indices((0..k).map(|_| rng.gen_range(0..12)));
            let mut expect_subs: Vec<_> =
                stored.iter().copied().filter(|s| s.is_subset_of(&q)).collect();
            expect_subs.sort();
            let mut got_subs = trie.subsets_of(&q);
            got_subs.sort();
            assert_eq!(got_subs, expect_subs, "subsets_of({q:?})");
            let mut expect_sups: Vec<_> =
                stored.iter().copied().filter(|s| s.is_superset_of(&q)).collect();
            expect_sups.sort();
            let mut got_sups = trie.supersets_of(&q);
            got_sups.sort();
            assert_eq!(got_sups, expect_sups, "supersets_of({q:?})");
            assert_eq!(trie.contains_subset_of(&q), !expect_subs.is_empty());
            assert_eq!(trie.contains_superset_of(&q), !expect_sups.is_empty());
        }
    }
}
