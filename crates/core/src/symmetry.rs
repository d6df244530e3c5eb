//! Structural §3.4 control plane: symmetry-class decomposition with lazy
//! per-entry quivers and incremental reconvergence.
//!
//! The eager control plane ([`crate::install_symmetric_groups_eager`])
//! enumerates every leaf-to-leaf shortest path to build the global
//! [`Quiver`], then re-enumerates each entry's paths to decompose it —
//! O(leaves² × paths) time and memory, ~67M paths and gigabytes of labels
//! at a k=32 fat-tree. The [`SymmetryEngine`] produces the **exact same
//! group tables** from the structure of the candidate DAG instead:
//!
//! 1. **Link classes** (the Quiver, without materializing it). For one
//!    destination leaf `d`, the labels eager places on a link are the image
//!    of the set of *prefix states* reaching its tail: every shortest path
//!    from a source leaf arrives with a `(src_leaf, bottleneck)` pair, and
//!    the link's label restriction is `{(src, cf(bottleneck, rate))}`.
//!    Candidate edges always point from hop distance `k` to `k-1`
//!    ([`RouteTable::dist_levels`]), so propagating interned prefix-state
//!    sets down the levels visits each candidate edge exactly once and
//!    yields, per destination, each link's label restriction — without
//!    enumerating a single path. Links are then partition-refined over
//!    destinations: two links end in the same class iff every restriction
//!    matches, i.e. iff their full label sets are equal — exactly the
//!    paper's `ℓ1 ~ ℓ2` (and *stricter* than the eager path's 64-bit score
//!    hash, which can collide). Set operations are memoized on interned
//!    ids, so a symmetric fabric costs O(distinct sets) ≈ O(tiers × pods)
//!    real set constructions per destination, everything else being id
//!    lookups.
//! 2. **Entry fingerprints + template reuse**. Walking the levels back up,
//!    each (switch, dst-leaf) entry gets an *exact* fingerprint: the
//!    interned list, in candidate order, of `(link class, link rate,
//!    child fingerprint)`. By induction it determines the entry's entire
//!    labeled candidate subgraph. If all candidate tuples are equal the
//!    entry is provably one symmetric component and nothing more is
//!    computed (the early-collapse path — on fully symmetric fabrics the
//!    whole install enumerates zero paths). Otherwise the entry's
//!    subgraph is walked **exactly once** (the lazy per-entry quiver —
//!    peak memory is one entry's subgraph, never the fabric's), producing
//!    a *canonical* signature with class ids renumbered by first
//!    occurrence: the decomposition only depends on the equality pattern
//!    of scores, which is invariant under consistent renaming, so entries
//!    in mirrored positions of different pods collapse to one canonical
//!    class. Each canonical class is decomposed once, on its first
//!    representative, and the resulting groups are stored as a template
//!    over candidate indices, replicated to every entry of the class.
//!    Candidates are in ascending port order, so mapping index groups
//!    through an entry's candidate list preserves the eager sort order
//!    bit-for-bit.
//! 3. **Warm reinstalls.** All interners, set-operation memos,
//!    class-refinement chains, canonical signatures and decomposition
//!    templates are content-addressed and persist across installs.
//!    Restoring a failed link replays the old refinement chains, so every
//!    entry hits the signature memo. A new fault mints fresh class ids
//!    along every chain it perturbs, fabric-wide, so nearly every
//!    asymmetric entry is walked again; the walk is still cheap (flat,
//!    reused scratch arrays, see `WalkScratch`) and its canonical
//!    signature almost always hits the template cache, so only entries
//!    of genuinely new shape are re-decomposed.
//!
//! **Known deviation** (shared with the figure goldens, documented in
//! DESIGN.md): eager truncates enumeration at
//! [`Quiver::DEFAULT_PATH_CAP`] paths per (entry, destination). The
//! engine's class propagation is exact (set-based, uncapped) and its
//! template enumeration uses the same cap, so results can differ from
//! eager only on fabrics with more than 65 536 shortest paths for a
//! single entry — far beyond every topology family in this repo.

use std::hash::Hash;

use drill_net::{NodeRef, PortGroup, RouteTable, SwitchId, Topology};
use drill_sim::{FxHashMap, FxHashSet};

use crate::decompose::{group_scored_paths, GroupingReport};
use crate::quiver::{enumerate_shortest_paths, CapFactor, Quiver};

/// Sentinel bottleneck meaning "the path starts here": mirrors the eager
/// builder's `bottleneck = u64::MAX` seed, so the first link of a path maps
/// to [`CapFactor::Source`] and `min(MAX, rate) = rate` thereafter.
const SOURCE_CAP: u64 = u64::MAX;

/// A prefix state: traffic from leaf `.0` arrives with bottleneck `.1`.
type BSet = Vec<(u32, u64)>;
/// A link's per-destination label restriction: `(src_leaf, cap_factor)`.
type LSet = Vec<(u32, CapFactor)>;
/// An entry fingerprint: `(link class, rate_bps, child fingerprint)` per
/// candidate, in candidate order. Canonical signatures reuse the same
/// tuple shape (see [`WalkScratch::signature`]).
type FKey = Vec<(u32, u64, u32)>;

/// Content-addressed store mapping slices to dense `u32` ids.
///
/// Id 0 is always the empty slice, so "no prefix states" and the terminal
/// fingerprint are the zero id and never need a lookup. Lookups go by
/// slice, so a hit allocates nothing.
struct Interner<E> {
    vals: Vec<Vec<E>>,
    ids: FxHashMap<Vec<E>, u32>,
}

impl<E: Copy + Eq + Hash> Interner<E> {
    fn new() -> Interner<E> {
        let mut it = Interner {
            vals: Vec::new(),
            ids: FxHashMap::default(),
        };
        it.intern(&[]);
        it
    }

    fn intern(&mut self, val: &[E]) -> u32 {
        if let Some(&id) = self.ids.get(val) {
            return id;
        }
        let id = self.vals.len() as u32;
        self.vals.push(val.to_vec());
        self.ids.insert(val.to_vec(), id);
        id
    }

    #[inline]
    fn get(&self, id: u32) -> &[E] {
        &self.vals[id as usize]
    }
}

/// The structural §3.4 control plane (see module docs).
///
/// One-shot use reproduces [`crate::install_symmetric_groups_eager`]
/// exactly; keeping the engine alive across [`SymmetryEngine::install`]
/// calls additionally reuses all structural work that a fault did not
/// invalidate (incremental reconvergence).
pub struct SymmetryEngine {
    bsets: Interner<(u32, u64)>,
    lsets: Interner<(u32, CapFactor)>,
    fps: Interner<(u32, u64, u32)>,
    /// `(bset, rate)` -> bset with every bottleneck clamped to `rate`.
    advance_memo: FxHashMap<(u32, u64), u32>,
    /// `(bset, rate)` -> the label restriction those prefixes induce.
    shift_memo: FxHashMap<(u32, u64), u32>,
    /// `(bset, bset)` -> set union.
    union_memo: FxHashMap<(u32, u32), u32>,
    /// `(old class, lset)` -> refined class. Chains are content-addressed:
    /// replaying identical restrictions yields identical final classes,
    /// across destinations and across installs.
    class_memo: FxHashMap<(u32, u32), u32>,
    next_class: u32,
    /// Final link class per link id, rebuilt by every install (kept only
    /// to reuse its allocation).
    class: Vec<u32>,
    /// Canonical signatures of entry subgraphs (class ids renumbered by
    /// first occurrence), in their own id space.
    sigs: Interner<(u32, u64, u32)>,
    /// Exact fingerprint -> canonical signature id. On a warm reinstall an
    /// unchanged entry hits this map and skips its subgraph walk entirely.
    canon_memo: FxHashMap<u32, u32>,
    /// Canonical signature -> decomposition over candidate *indices*;
    /// `None` means a single symmetric component (install clears the
    /// entry's groups).
    templates: FxHashMap<u32, Option<Vec<PortGroup>>>,
    scratch: WalkScratch,
}

impl Default for SymmetryEngine {
    fn default() -> SymmetryEngine {
        SymmetryEngine::new()
    }
}

impl SymmetryEngine {
    /// An empty engine with no cached structure.
    pub fn new() -> SymmetryEngine {
        SymmetryEngine {
            bsets: Interner::new(),
            lsets: Interner::new(),
            fps: Interner::new(),
            advance_memo: FxHashMap::default(),
            shift_memo: FxHashMap::default(),
            union_memo: FxHashMap::default(),
            class_memo: FxHashMap::default(),
            next_class: 1,
            class: Vec::new(),
            sigs: Interner::new(),
            canon_memo: FxHashMap::default(),
            templates: FxHashMap::default(),
            scratch: WalkScratch::default(),
        }
    }

    /// Decompose every multi-candidate (switch, dst-leaf) entry of
    /// `routes` into symmetric components and install them, exactly as
    /// [`crate::install_symmetric_groups_eager`] would.
    ///
    /// Reuses any structure cached by previous installs on this engine.
    pub fn install(&mut self, topo: &Topology, routes: &mut RouteTable) -> GroupingReport {
        let start = std::time::Instant::now();
        let n_switches = topo.num_switches();
        let n_leaves = topo.num_leaves();
        let mut report = GroupingReport::default();

        // Phase 1: link classes by partition refinement over destinations.
        // `class[link] == 0` means "on no shortest path at all", matching
        // the eager score 0 for unlabeled links.
        let mut class = std::mem::take(&mut self.class);
        class.clear();
        class.resize(topo.links().len(), 0);
        // A non-destination leaf originates its own paths: one seed state
        // per leaf, interned once per install.
        let seeds: Vec<u32> = (0..n_leaves as u32)
            .map(|li| self.bsets.intern(&[(li, SOURCE_CAP)]))
            .collect();
        let mut bstate: Vec<u32> = vec![0; n_switches];
        for d in 0..n_leaves as u32 {
            let levels = routes.dist_levels(d);
            bstate.fill(0);
            // Sources first: candidate edges go from level k to k-1, so by
            // the time a level is processed its prefix states are final.
            for (dist, level) in levels.iter().enumerate().rev() {
                for &a in level {
                    let mut b = bstate[a.index()];
                    // A leaf that is not the destination originates its own
                    // paths (even while relaying others': eager enumerates
                    // from every source leaf independently).
                    if dist > 0 {
                        if let Some(li) = topo.leaf_index(a) {
                            b = self.union(b, seeds[li as usize]);
                        }
                    }
                    if b == 0 {
                        // No shortest path reaches this switch for `d`:
                        // its candidate links stay unlabeled, exactly like
                        // the inert detour entries eager never walks.
                        continue;
                    }
                    for &p in routes.candidates(a, d) {
                        let link = topo.egress(a, p);
                        let lset = self.shift(b, link.rate_bps);
                        let li = link.id.index();
                        class[li] = self.refine(class[li], lset);
                        if let NodeRef::Switch(t) = link.dst {
                            let adv = self.advance(b, link.rate_bps);
                            bstate[t.index()] = self.union(bstate[t.index()], adv);
                        }
                    }
                }
            }
        }

        // Phase 2: entry fingerprints, destination first, and one
        // decomposition per distinct fingerprint.
        let mut fid: Vec<u32> = vec![0; n_switches];
        let mut seen_sigs: FxHashSet<u32> = FxHashSet::default();
        let mut cand_buf: Vec<u16> = Vec::new();
        let mut key: FKey = Vec::new();
        for d in 0..n_leaves as u32 {
            let levels = routes.dist_levels(d);
            for (dist, level) in levels.iter().enumerate() {
                for &a in level {
                    if dist == 0 {
                        fid[a.index()] = 0;
                        continue;
                    }
                    cand_buf.clear();
                    cand_buf.extend_from_slice(routes.candidates(a, d));
                    key.clear();
                    for &p in &cand_buf {
                        let link = topo.egress(a, p);
                        let child = match link.dst {
                            NodeRef::Switch(t) => fid[t.index()],
                            NodeRef::Host(_) => unreachable!("candidates are switch links"),
                        };
                        key.push((class[link.id.index()], link.rate_bps, child));
                    }
                    // All candidate subtrees identical => every score group
                    // spans every port => provably one component, nothing
                    // to walk or enumerate.
                    let collapsed = key.windows(2).all(|w| w[0] == w[1]);
                    let f = self.fps.intern(&key);
                    fid[a.index()] = f;
                    if cand_buf.len() < 2 {
                        continue;
                    }
                    report.entries += 1;
                    let canon = if collapsed {
                        // Marker signature: "n identical subtrees". The
                        // `u32::MAX` node field can't appear in a real walk
                        // signature, whose references are visit numbers.
                        self.sigs
                            .intern(&[(u32::MAX, cand_buf.len() as u64, u32::MAX)])
                    } else if let Some(&c) = self.canon_memo.get(&f) {
                        c
                    } else {
                        // The lazy per-entry quiver: walk this entry's
                        // candidate subgraph exactly once.
                        let sig =
                            self.scratch
                                .signature(topo, routes, a, d, &class, self.next_class);
                        let c = self.sigs.intern(sig);
                        self.canon_memo.insert(f, c);
                        c
                    };
                    if seen_sigs.insert(canon) {
                        report.classes += 1;
                    } else {
                        report.entries_reused += 1;
                    }
                    let tmpl = self.templates.entry(canon).or_insert_with(|| {
                        if collapsed {
                            None
                        } else {
                            let paths = enumerate_shortest_paths(
                                topo,
                                routes,
                                a,
                                d,
                                Quiver::DEFAULT_PATH_CAP,
                            );
                            report.paths_enumerated += paths.len() as u64;
                            let groups = group_scored_paths(paths.into_iter().map(|links| {
                                let first_port = topo.link(links[0]).src_port;
                                let idx = cand_buf
                                    .iter()
                                    .position(|&p| p == first_port)
                                    .expect("first hop is a candidate")
                                    as u16;
                                let cap = links
                                    .iter()
                                    .map(|&l| topo.link(l).rate_bps)
                                    .min()
                                    .unwrap_or(0);
                                let score =
                                    links.iter().map(|&l| class[l.index()] as u64).collect();
                                (idx, score, cap)
                            }));
                            (groups.len() > 1).then_some(groups)
                        }
                    });
                    match &*tmpl {
                        None => {
                            report.max_components = report.max_components.max(1);
                            routes.set_groups(a, d, Vec::new());
                        }
                        Some(template) => {
                            report.max_components = report.max_components.max(template.len());
                            report.asymmetric_entries += 1;
                            let groups = template
                                .iter()
                                .map(|g| PortGroup {
                                    ports: g.ports.iter().map(|&i| cand_buf[i as usize]).collect(),
                                    weight: g.weight,
                                })
                                .collect();
                            routes.set_groups(a, d, groups);
                        }
                    }
                }
            }
        }
        self.class = class;

        report.build_ns = start.elapsed().as_nanos() as u64;
        report
    }

    /// Union of two interned prefix-state sets.
    fn union(&mut self, a: u32, b: u32) -> u32 {
        if a == 0 || a == b {
            return b;
        }
        if b == 0 {
            return a;
        }
        if let Some(&id) = self.union_memo.get(&(a, b)) {
            return id;
        }
        let merged = {
            let (va, vb) = (self.bsets.get(a), self.bsets.get(b));
            let mut out: BSet = Vec::with_capacity(va.len() + vb.len());
            out.extend_from_slice(va);
            out.extend_from_slice(vb);
            out.sort_unstable();
            out.dedup();
            out
        };
        let id = self.bsets.intern(&merged);
        self.union_memo.insert((a, b), id);
        id
    }

    /// Clamp every prefix bottleneck to `rate` (the state after crossing a
    /// link of that rate), mirroring `bottleneck.min(rate)` in the eager
    /// builder.
    fn advance(&mut self, b: u32, rate: u64) -> u32 {
        if let Some(&id) = self.advance_memo.get(&(b, rate)) {
            return id;
        }
        let advanced = {
            let mut out: BSet = self
                .bsets
                .get(b)
                .iter()
                .map(|&(s, cap)| (s, cap.min(rate)))
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        let id = self.bsets.intern(&advanced);
        self.advance_memo.insert((b, rate), id);
        id
    }

    /// The label restriction a prefix-state set induces on a link of
    /// `rate`: `(src, Source)` for path-starting prefixes, else
    /// `(src, cf(bottleneck, rate))` — exactly the eager per-path labels,
    /// aggregated as a set.
    fn shift(&mut self, b: u32, rate: u64) -> u32 {
        if let Some(&id) = self.shift_memo.get(&(b, rate)) {
            return id;
        }
        let shifted = {
            let mut out: LSet = self
                .bsets
                .get(b)
                .iter()
                .map(|&(s, cap)| {
                    let cf = if cap == SOURCE_CAP {
                        CapFactor::Source
                    } else {
                        CapFactor::ratio(cap, rate)
                    };
                    (s, cf)
                })
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        let id = self.lsets.intern(&shifted);
        self.shift_memo.insert((b, rate), id);
        id
    }

    /// Partition-refine a link class by this destination's restriction.
    /// Fresh ids never collide with pre-refinement ids, so links *not*
    /// labeled for this destination (which keep their class) can never
    /// stay merged with links that were.
    fn refine(&mut self, class: u32, lset: u32) -> u32 {
        if let Some(&id) = self.class_memo.get(&(class, lset)) {
            return id;
        }
        let id = self.next_class;
        self.next_class += 1;
        self.class_memo.insert((class, lset), id);
        id
    }
}

/// First-occurrence numbering of dense ids (switch ids or link class
/// ids) for one walk at a time. Each slot carries the stamp of the walk
/// that numbered it, so a slot from an earlier walk reads as unnumbered
/// and starting a walk costs nothing here.
#[derive(Default)]
struct Numbering {
    /// `(stamp, number)` per id.
    slots: Vec<(u32, u32)>,
    next: u32,
}

impl Numbering {
    fn reset(&mut self, n_ids: usize, wrapped: bool) {
        if wrapped {
            // Slots stamped 2^32 walks ago would read as current.
            self.slots.fill((0, 0));
        }
        if self.slots.len() < n_ids {
            self.slots.resize(n_ids, (0, 0));
        }
        self.next = 0;
    }

    /// The number of `id` in the walk stamped `gen`, and whether this call
    /// assigned it.
    #[inline]
    fn number(&mut self, gen: u32, id: usize) -> (u32, bool) {
        let slot = &mut self.slots[id];
        if slot.0 == gen {
            return (slot.1, false);
        }
        *slot = (gen, self.next);
        self.next += 1;
        (slot.1, true)
    }
}

/// Reusable state of the canonical-signature walk: once its arrays and
/// signature buffer have grown to the fabric's size, a walk allocates
/// nothing and starting one is a stamp increment.
#[derive(Default)]
struct WalkScratch {
    /// The current walk's stamp. Never 0 during a walk, so default slots
    /// always read as unnumbered.
    gen: u32,
    /// Visit numbers, by switch id.
    nodes: Numbering,
    /// Renumbered link classes, by class id.
    classes: Numbering,
    sig: FKey,
}

impl WalkScratch {
    /// Start a new walk over `n_switches` switch ids and link class ids
    /// below `n_classes` (refinement keeps minting class ids, so a warm
    /// install can need more slots than the last one).
    fn reset(&mut self, n_switches: usize, n_classes: usize) {
        self.gen = self.gen.wrapping_add(1);
        let wrapped = self.gen == 0;
        if wrapped {
            self.gen = 1;
        }
        self.nodes.reset(n_switches, wrapped);
        self.classes.reset(n_classes, wrapped);
        self.sig.clear();
    }

    /// Canonical preorder serialization of one entry's candidate subgraph,
    /// whose links carry the classes in `class` (all below `n_classes`):
    /// nodes numbered by first visit, link classes renumbered by first
    /// occurrence. Each node contributes a `(u32::MAX, arity, visit_no)`
    /// header followed by one `(renumbered class, rate_bps, child
    /// visit_no)` tuple per candidate, with a newly visited child's block
    /// interleaved right after its edge (preorder), so the encoding is
    /// prefix-unambiguous.
    ///
    /// Two entries with equal signatures have isomorphic class-labeled
    /// candidate DAGs (candidate order preserved), hence identical unrolled
    /// path trees up to a consistent renaming of class ids — and path-score
    /// grouping only depends on the *equality pattern* of scores, so their
    /// decompositions in candidate-index space coincide, weights included
    /// (capacities come from the rates, which the signature carries
    /// verbatim).
    fn signature(
        &mut self,
        topo: &Topology,
        routes: &RouteTable,
        entry: SwitchId,
        dst_leaf: u32,
        class: &[u32],
        n_classes: u32,
    ) -> &[(u32, u64, u32)] {
        self.reset(topo.num_switches(), n_classes as usize);
        let (root, _) = self.nodes.number(self.gen, entry.index());
        self.walk(topo, routes, entry, root, dst_leaf, class);
        &self.sig
    }

    /// Serialize switch `s`, already numbered `sn`, and every switch first
    /// reached through it.
    fn walk(
        &mut self,
        topo: &Topology,
        routes: &RouteTable,
        s: SwitchId,
        sn: u32,
        dst_leaf: u32,
        class: &[u32],
    ) {
        let cands = routes.candidates(s, dst_leaf);
        self.sig.push((u32::MAX, cands.len() as u64, sn));
        for &p in cands {
            let link = topo.egress(s, p);
            let (cn, _) = self
                .classes
                .number(self.gen, class[link.id.index()] as usize);
            let t = match link.dst {
                NodeRef::Switch(t) => t,
                NodeRef::Host(_) => unreachable!("candidates are switch links"),
            };
            let (tn, first_visit) = self.nodes.number(self.gen, t.index());
            self.sig.push((cn, link.rate_bps, tn));
            if first_visit {
                self.walk(topo, routes, t, tn, dst_leaf, class);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::install_symmetric_groups_eager;
    use drill_net::{
        clos, leaf_spine, leaf_spine_custom, vl2, ClosSpec, LeafSpineSpec, LinkId, SwitchId,
        Vl2Spec, DEFAULT_PROP,
    };
    use drill_sim::SimRng;
    use std::collections::HashMap;

    fn spec(spines: usize, leaves: usize) -> LeafSpineSpec {
        LeafSpineSpec {
            spines,
            leaves,
            hosts_per_leaf: 1,
            host_rate: 10_000_000_000,
            core_rate: 40_000_000_000,
            prop: DEFAULT_PROP,
        }
    }

    /// Every installed group table, as a comparable value.
    fn group_table(topo: &Topology, routes: &RouteTable) -> Vec<(u32, u32, Vec<PortGroup>)> {
        let mut out = Vec::new();
        for si in 0..topo.num_switches() {
            let s = SwitchId(si as u32);
            for d in 0..topo.num_leaves() as u32 {
                let g = routes.groups(s, d);
                if !g.is_empty() {
                    out.push((si as u32, d, g.to_vec()));
                }
            }
        }
        out
    }

    fn assert_structural_matches_eager(topo: &Topology) {
        let mut eager = RouteTable::compute(topo);
        let re = install_symmetric_groups_eager(topo, &mut eager);
        let mut structural = RouteTable::compute(topo);
        let rs = SymmetryEngine::new().install(topo, &mut structural);
        assert_eq!(
            group_table(topo, &eager),
            group_table(topo, &structural),
            "group tables must match bit-for-bit"
        );
        assert_eq!(re.entries, rs.entries);
        assert_eq!(re.asymmetric_entries, rs.asymmetric_entries);
        assert_eq!(re.max_components, rs.max_components);
        assert!(rs.classes <= rs.entries);
        assert_eq!(rs.entries_reused, rs.entries - rs.classes);
        assert!(
            rs.paths_enumerated <= re.paths_enumerated,
            "structural must never walk more paths than eager"
        );
    }

    #[test]
    fn matches_eager_on_figure4() {
        let mut topo = leaf_spine(&spec(3, 4));
        let l0 = topo.leaves()[0];
        topo.fail_switch_link(l0, SwitchId(4), 0);
        assert_structural_matches_eager(&topo);
    }

    #[test]
    fn matches_eager_on_heterogeneous_striping() {
        let s = LeafSpineSpec {
            spines: 3,
            leaves: 4,
            hosts_per_leaf: 1,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: DEFAULT_PROP,
        };
        let topo = leaf_spine_custom(&s, |leaf, spine| {
            let fat = (leaf == 0 && spine <= 1) || (leaf == 1 && spine == 0);
            vec![if fat { 40_000_000_000 } else { 10_000_000_000 }]
        });
        assert_structural_matches_eager(&topo);
    }

    #[test]
    fn matches_eager_on_vl2_failure() {
        let mut topo = vl2(&Vl2Spec::paper());
        let tor0 = topo.leaves()[0];
        assert!(topo.fail_switch_link(tor0, SwitchId(16), 0));
        assert_structural_matches_eager(&topo);
    }

    #[test]
    fn matches_eager_on_clos_failures() {
        let mut topo = clos(&ClosSpec::smoke());
        // Fail one leaf-agg and one agg-core link.
        let l0 = topo.leaves()[0];
        let agg = match topo.egress(l0, 0).dst {
            NodeRef::Switch(s) => s,
            _ => unreachable!(),
        };
        assert!(topo.fail_switch_link(l0, agg, 0));
        let core = match topo.egress(agg, 2).dst {
            NodeRef::Switch(s) => s,
            _ => unreachable!(),
        };
        assert!(topo.fail_switch_link(agg, core, 0));
        assert_structural_matches_eager(&topo);
    }

    #[test]
    fn symmetric_fabrics_enumerate_zero_paths() {
        for topo in [
            leaf_spine(&spec(4, 4)),
            clos(&ClosSpec::smoke()),
            vl2(&Vl2Spec::paper()),
        ] {
            let mut routes = RouteTable::compute(&topo);
            let report = SymmetryEngine::new().install(&topo, &mut routes);
            assert_eq!(
                report.paths_enumerated, 0,
                "symmetric fabrics collapse without enumeration"
            );
            assert_eq!(report.asymmetric_entries, 0);
            assert!(report.entries > 0);
            assert!(
                report.classes < report.entries,
                "symmetric entries share classes"
            );
        }
    }

    #[test]
    fn warm_reinstall_is_incremental_and_exact() {
        let mut topo = clos(&ClosSpec::smoke());
        let mut engine = SymmetryEngine::new();
        let mut routes = RouteTable::compute(&topo);
        engine.install(&topo, &mut routes);

        // Fault: lose a leaf-agg link, reconverge.
        let l0 = topo.leaves()[0];
        let agg = match topo.egress(l0, 0).dst {
            NodeRef::Switch(s) => s,
            _ => unreachable!(),
        };
        assert!(topo.fail_switch_link(l0, agg, 0));
        let mut warm_routes = RouteTable::compute(&topo);
        let warm = engine.install(&topo, &mut warm_routes);

        let mut eager_routes = RouteTable::compute(&topo);
        install_symmetric_groups_eager(&topo, &mut eager_routes);
        assert_eq!(
            group_table(&topo, &eager_routes),
            group_table(&topo, &warm_routes),
            "warm incremental reinstall matches fresh eager"
        );
        assert!(warm.entries_reused > 0);

        // Restore: the pre-fault structure is fully cached, so the third
        // install enumerates nothing.
        assert!(topo.restore_switch_link(l0, agg, 0));
        let mut back = RouteTable::compute(&topo);
        let third = engine.install(&topo, &mut back);
        assert_eq!(third.paths_enumerated, 0, "restore replays cached work");
    }

    /// Hand-built pod-symmetric Clos: links in mirrored positions of
    /// different pods are exactly symmetric (equal label sets), pinned via
    /// the eager Quiver's `links_symmetric`/`link_score`, and the engine
    /// assigns them one class (single-component entries everywhere).
    #[test]
    fn pod_symmetric_clos_link_classes() {
        let topo = clos(&ClosSpec::smoke());
        let routes = RouteTable::compute(&topo);
        let q = Quiver::build(&topo, &routes);
        // Pods are built identically: leaf 0 of pod 0 is switch 0, leaf 0
        // of pod 1 is switch 4 (2 leaves + 2 aggs per pod).
        let pod0_leaf = topo.leaves()[0];
        let pod1_leaf = topo.leaves()[2];
        let up0: LinkId = topo.egress(pod0_leaf, 0).id;
        let up0b: LinkId = topo.egress(pod0_leaf, 1).id;
        let up1: LinkId = topo.egress(pod1_leaf, 0).id;
        // Within a pod, both agg uplinks of a leaf are symmetric.
        assert!(q.links_symmetric(up0, up0b));
        assert_eq!(q.link_score(up0), q.link_score(up0b));
        // Across pods, label sets differ (sources differ) — the same
        // *score partition* shape, but not the same labels.
        assert!(!q.links_symmetric(up0, up1));
        assert_ne!(q.link_score(up0), q.link_score(up1));
        // The engine agrees with the Quiver: symmetric uplinks land in one
        // entry class and the whole fabric stays single-component.
        let mut r2 = RouteTable::compute(&topo);
        let report = SymmetryEngine::new().install(&topo, &mut r2);
        assert_eq!(report.asymmetric_entries, 0);
        assert_eq!(report.max_components, 1);
        assert!(group_table(&topo, &r2).is_empty());
    }

    /// The hash-map form of [`WalkScratch::signature`], kept as its
    /// oracle: fresh maps number nodes and classes on every call, so no
    /// state can leak between walks.
    fn oracle_signature(
        topo: &Topology,
        routes: &RouteTable,
        entry: SwitchId,
        dst_leaf: u32,
        class: &[u32],
    ) -> FKey {
        let mut node_no: HashMap<u32, u32> = HashMap::new();
        let mut class_no: HashMap<u32, u32> = HashMap::new();
        let mut sig: FKey = Vec::new();
        node_no.insert(entry.0, 0);
        oracle_walk(
            topo,
            routes,
            entry,
            dst_leaf,
            class,
            &mut node_no,
            &mut class_no,
            &mut sig,
        );
        sig
    }

    #[allow(clippy::too_many_arguments)]
    fn oracle_walk(
        topo: &Topology,
        routes: &RouteTable,
        s: SwitchId,
        dst_leaf: u32,
        class: &[u32],
        node_no: &mut HashMap<u32, u32>,
        class_no: &mut HashMap<u32, u32>,
        sig: &mut FKey,
    ) {
        let cands = routes.candidates(s, dst_leaf);
        sig.push((u32::MAX, cands.len() as u64, node_no[&s.0]));
        for &p in cands {
            let link = topo.egress(s, p);
            let next_class_no = class_no.len() as u32;
            let cn = *class_no
                .entry(class[link.id.index()])
                .or_insert(next_class_no);
            let t = match link.dst {
                NodeRef::Switch(t) => t,
                NodeRef::Host(_) => unreachable!("candidates are switch links"),
            };
            let (tn, first_visit) = match node_no.get(&t.0) {
                Some(&n) => (n, false),
                None => {
                    let n = node_no.len() as u32;
                    node_no.insert(t.0, n);
                    (n, true)
                }
            };
            sig.push((cn, link.rate_bps, tn));
            if first_visit {
                oracle_walk(topo, routes, t, dst_leaf, class, node_no, class_no, sig);
            }
        }
    }

    /// Install on `engine`, then check the scratch walk against the oracle
    /// on every multi-candidate entry (collapsed ones included) under the
    /// link classes that install produced. Returns the entries checked.
    fn install_and_check_walk(engine: &mut SymmetryEngine, topo: &Topology) -> usize {
        let mut routes = RouteTable::compute(topo);
        engine.install(topo, &mut routes);
        let class = &engine.class;
        let mut checked = 0;
        for si in 0..topo.num_switches() {
            let s = SwitchId(si as u32);
            for d in 0..topo.num_leaves() as u32 {
                if routes.candidates(s, d).len() < 2 {
                    continue;
                }
                let want = oracle_signature(topo, &routes, s, d, class);
                let got = engine
                    .scratch
                    .signature(topo, &routes, s, d, class, engine.next_class);
                assert_eq!(got, &want[..], "signature of switch {si} toward leaf {d}");
                checked += 1;
            }
        }
        checked
    }

    /// Cold install, fail `links`, reinstall, restore them, reinstall —
    /// all on one engine, so every walk after the first install runs on
    /// scratch state earlier walks left behind.
    fn check_walk_cold_fail_restore(mut topo: Topology, links: &[(SwitchId, SwitchId)]) {
        let mut engine = SymmetryEngine::new();
        assert!(install_and_check_walk(&mut engine, &topo) > 0);
        for &(a, b) in links {
            assert!(topo.fail_switch_link(a, b, 0));
        }
        install_and_check_walk(&mut engine, &topo);
        for &(a, b) in links {
            assert!(topo.restore_switch_link(a, b, 0));
        }
        install_and_check_walk(&mut engine, &topo);
    }

    fn first_hop(topo: &Topology, s: SwitchId, port: u16) -> SwitchId {
        match topo.egress(s, port).dst {
            NodeRef::Switch(t) => t,
            NodeRef::Host(_) => unreachable!("port {port} of {s:?} faces a host"),
        }
    }

    /// The named fabrics of the eager-equality tests above, each with its
    /// failures applied and then restored.
    #[test]
    fn walk_matches_oracle_on_named_fabrics() {
        let fig4 = leaf_spine(&spec(3, 4));
        let fig4_fail = vec![(fig4.leaves()[0], SwitchId(4))];

        let striped_spec = LeafSpineSpec {
            core_rate: 10_000_000_000,
            ..spec(3, 4)
        };
        let striped = leaf_spine_custom(&striped_spec, |leaf, spine| {
            let fat = (leaf == 0 && spine <= 1) || (leaf == 1 && spine == 0);
            vec![if fat { 40_000_000_000 } else { 10_000_000_000 }]
        });
        let l2 = striped.leaves()[2];
        let striped_fail = vec![(l2, first_hop(&striped, l2, 0))];

        let vl2 = vl2(&Vl2Spec::paper());
        let vl2_fail = vec![(vl2.leaves()[0], SwitchId(16))];

        let clos = clos(&ClosSpec::smoke());
        let l0 = clos.leaves()[0];
        let agg = first_hop(&clos, l0, 0);
        let clos_fail = vec![(l0, agg), (agg, first_hop(&clos, agg, 2))];

        for (topo, fail) in [
            (fig4, fig4_fail),
            (striped, striped_fail),
            (vl2, vl2_fail),
            (clos, clos_fail),
        ] {
            check_walk_cold_fail_restore(topo, &fail);
        }
    }

    /// Seeded failure sets of one to three switch-switch links of any
    /// tier, on the smoke Clos and the Fig-4 leaf-spine.
    #[test]
    fn walk_matches_oracle_on_random_failures() {
        for seed in 0..50u64 {
            let topo = if seed % 2 == 0 {
                clos(&ClosSpec::smoke())
            } else {
                leaf_spine(&spec(3, 4))
            };
            let mut pairs: Vec<(SwitchId, SwitchId)> = topo
                .links()
                .iter()
                .filter_map(|l| match (l.src, l.dst) {
                    (NodeRef::Switch(a), NodeRef::Switch(b)) if a.0 < b.0 => Some((a, b)),
                    _ => None,
                })
                .collect();
            pairs.sort_unstable_by_key(|&(a, b)| (a.0, b.0));
            pairs.dedup();
            let mut rng = SimRng::seed_from(seed);
            rng.shuffle(&mut pairs);
            pairs.truncate(1 + rng.below(3));
            check_walk_cold_fail_restore(topo, &pairs);
        }
    }

    /// Slots stamped before the generation wraps must read as unnumbered
    /// after it: the wrap clears the arrays.
    #[test]
    fn scratch_stamp_wrap_clears_slots() {
        let mut s = WalkScratch::default();
        s.reset(4, 4);
        assert_eq!(s.nodes.number(s.gen, 2), (0, true));
        assert_eq!(s.nodes.number(s.gen, 2), (0, false));
        s.gen = u32::MAX - 1;
        s.reset(4, 4);
        assert_eq!(s.gen, u32::MAX);
        s.reset(4, 4);
        assert_eq!(s.gen, 1, "the wrap skips the never-written stamp 0");
        assert_eq!(s.nodes.number(s.gen, 1), (0, true));
        assert_eq!(
            s.nodes.number(s.gen, 2),
            (1, true),
            "a slot an earlier walk stamped with the same stamp reads as unnumbered"
        );
    }

    /// The wrap on a live engine: with the stamp started near `u32::MAX`,
    /// it wraps during the failure reinstall, and walks on both sides of
    /// the wrap must match the oracle. The class slots must also grow to
    /// cover the ids refinement minted after the cold install.
    #[test]
    fn walk_matches_oracle_across_stamp_wrap_and_class_growth() {
        let mut topo = clos(&ClosSpec::smoke());
        let mut engine = SymmetryEngine::new();
        install_and_check_walk(&mut engine, &topo);
        let cold_classes = engine.next_class;
        engine.scratch.gen = u32::MAX - 3;
        let l0 = topo.leaves()[0];
        let agg = first_hop(&topo, l0, 0);
        assert!(topo.fail_switch_link(l0, agg, 0));
        assert!(install_and_check_walk(&mut engine, &topo) > 4);
        assert!(engine.scratch.gen < 1 << 16, "the stamp wrapped");
        assert!(
            engine.next_class > cold_classes,
            "refinement minted new classes"
        );
        assert!(engine.scratch.classes.slots.len() >= engine.next_class as usize);
    }
}
