//! FLUTE-style precomputed topology tables for nets of degree 4–9.
//!
//! FLUTE's core observation (Chu & Wong, TCAD 2008) is that the *topology* of
//! an optimal rectilinear Steiner tree depends only on the net's **position
//! sequence** — the permutation `s` where `s[i]` is the y-rank of the i-th pin
//! in x-sorted order — never on the actual coordinates. For each sequence a
//! small set of candidate topologies (POWVs, potentially optimal wirelength
//! vectors) can be precomputed; at lookup time each candidate's wirelength is
//! a dot product of per-gap edge-crossing counts with the actual coordinate
//! gaps, and the cheapest candidate is embedded in O(degree) time.
//!
//! This module implements that scheme for degrees 4–9:
//!
//! - sequences are de-duplicated by the 8-element symmetry group of the plane
//!   (transpose × flip-x × flip-y), so only canonical classes are stored;
//! - degree-4 classes enumerate **all** spanning trees over the pins plus ≤ 2
//!   Hanan-grid Steiner points (via Prüfer sequences with a Steiner-degree ≥ 3
//!   constraint), so the kept POWV set provably contains an optimal tree for
//!   every gap profile — the table is exact at degree 4;
//! - degree 5–9 classes run a bounded iterated-1-Steiner search over the
//!   Hanan grid under several deterministic gap-weight profiles and keep the
//!   non-dominated cost vectors — near-optimal in practice, and the forest
//!   additionally clamps the result against a plain Prim tree so the emitted
//!   tree is never worse than the degree ≥ 5 fallback heuristic;
//! - classes are generated **lazily** on first lookup and memoized in a
//!   process-global append-only registry, so flows only pay for the classes
//!   their nets actually visit ([`prewarm`] exists for benchmarks that want
//!   the full table up front). Generation runs outside the registry lock —
//!   it is a pure function of the key, so two threads racing for one class
//!   at worst discard a duplicate — and [`table_stats`] reports how many
//!   classes a process generated and how long that took.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};
use std::time::Instant;

/// Largest net degree served by the topology tables; larger nets always use
/// the Prim heuristic.
pub const MAX_TABLE_DEGREE: usize = 9;

/// Smallest net degree served by the tables (degree ≤ 3 constructions are
/// already exact and allocation-free without them).
pub(crate) const MIN_TABLE_DEGREE: usize = 4;

/// Topology-table configuration carried by a
/// [`SteinerForest`](crate::SteinerForest).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableConfig {
    /// Use the precomputed topology tables for degrees
    /// 4..=[`MAX_TABLE_DEGREE`]. When `false` the forest reproduces the
    /// legacy constructions (exact Hanan at degree ≤ 4, Prim above) bit for
    /// bit.
    pub enabled: bool,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig { enabled: true }
    }
}

impl TableConfig {
    /// Configuration with the tables switched off (the legacy behaviour).
    pub fn disabled() -> TableConfig {
        TableConfig { enabled: false }
    }
}

/// One candidate topology with its wirelength vector.
///
/// `cx[g]` / `cy[g]` count how many tree edges cross the gap between
/// canonical x-ranks (y-ranks) `g` and `g + 1`; the real wirelength of the
/// topology is `Σ cx[g]·Δx[g] + Σ cy[g]·Δy[g]`. Steiner points are canonical
/// Hanan-grid coordinates `(x_rank, y_rank)`; edges index nodes with pins
/// first (`0..n`, in canonical x-order) then Steiner points (`n..`).
#[derive(Clone, Debug)]
pub(crate) struct Powv {
    pub cx: [u8; MAX_TABLE_DEGREE - 1],
    pub cy: [u8; MAX_TABLE_DEGREE - 1],
    pub steiner: Vec<(u8, u8)>,
    pub edges: Vec<(u8, u8)>,
}

/// The POWV set of one canonical position-sequence class.
#[derive(Debug)]
pub(crate) struct ClassEntry {
    pub n: usize,
    /// The canonical sequence itself (first `n` entries valid).
    pub seq: [u8; MAX_TABLE_DEGREE],
    pub powvs: Vec<Powv>,
}

/// Packs a position sequence into a `u64` key (4 bits per rank; degree ≤ 9
/// never exceeds rank 8, and the unused high bits stay zero so keys of
/// different degrees cannot collide within a per-degree map).
pub(crate) fn pack_seq(seq: &[u8]) -> u64 {
    let mut k = 0u64;
    for (i, &s) in seq.iter().enumerate() {
        k |= (s as u64) << (4 * i);
    }
    k
}

/// Maps a raw Hanan-grid point `(a, b)` (x-rank, y-rank) into the canonical
/// frame of transform `t` (bit 0 = flip x, bit 1 = flip y, bit 2 = swap axes;
/// flips are applied before the swap).
#[inline]
pub(crate) fn transform_point(a: usize, b: usize, n: usize, t: u8) -> (usize, usize) {
    let fa = if t & 1 != 0 { n - 1 - a } else { a };
    let fb = if t & 2 != 0 { n - 1 - b } else { b };
    if t & 4 != 0 { (fb, fa) } else { (fa, fb) }
}

/// Inverse of [`transform_point`]: canonical frame back to the raw frame
/// (undo the swap, then undo the flips — both are involutions).
#[inline]
pub(crate) fn untransform_point(a: usize, b: usize, n: usize, t: u8) -> (usize, usize) {
    let (sa, sb) = if t & 4 != 0 { (b, a) } else { (a, b) };
    let ra = if t & 1 != 0 { n - 1 - sa } else { sa };
    let rb = if t & 2 != 0 { n - 1 - sb } else { sb };
    (ra, rb)
}

/// Canonicalizes a raw position sequence: returns the lexicographically
/// smallest packed sequence over the 8 symmetry transforms and the transform
/// that achieves it.
pub(crate) fn canonicalize(seq: &[u8]) -> (u64, u8) {
    let n = seq.len();
    let mut best_key = u64::MAX;
    let mut best_t = 0u8;
    let mut tmp = [0u8; MAX_TABLE_DEGREE];
    for t in 0..8u8 {
        for (a, &b) in seq.iter().enumerate() {
            let (ca, cb) = transform_point(a, b as usize, n, t);
            tmp[ca] = cb as u8;
        }
        let key = pack_seq(&tmp[..n]);
        if key < best_key {
            best_key = key;
            best_t = t;
        }
    }
    (best_key, best_t)
}

/// Evaluates a POWV against canonical-frame gap arrays.
#[inline]
pub(crate) fn powv_cost(p: &Powv, gx: &[f64], gy: &[f64], n: usize) -> f64 {
    let mut c = 0.0;
    for g in 0..n - 1 {
        c += p.cx[g] as f64 * gx[g] + p.cy[g] as f64 * gy[g];
    }
    c
}

type ClassMap = HashMap<u64, &'static ClassEntry>;

/// Per-degree class registries (index = degree − [`MIN_TABLE_DEGREE`]).
/// Append-only: entries are leaked into `'static` storage on insertion and
/// never removed, so lookups hand out plain references.
fn registry() -> &'static [RwLock<ClassMap>; MAX_TABLE_DEGREE - MIN_TABLE_DEGREE + 1] {
    static REG: OnceLock<[RwLock<ClassMap>; MAX_TABLE_DEGREE - MIN_TABLE_DEGREE + 1]> =
        OnceLock::new();
    REG.get_or_init(|| std::array::from_fn(|_| RwLock::new(HashMap::new())))
}

/// Classes inserted into the registry / nanoseconds spent generating classes
/// (discarded race duplicates included), process-wide. Pure statistics: they
/// publish no other data, hence `Relaxed`.
static CLASSES_GENERATED: AtomicU64 = AtomicU64::new(0);
static CLASS_GEN_NS: AtomicU64 = AtomicU64::new(0);

/// Process-wide topology-table generation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Classes generated and memoized so far (deterministic for a
    /// deterministic sequence of lookups).
    pub classes_generated: u64,
    /// Wall-clock nanoseconds spent generating them, summed over threads.
    pub gen_ns: u64,
}

impl std::fmt::Display for TableStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} topology classes generated in {:.1} ms",
            self.classes_generated,
            self.gen_ns as f64 / 1e6
        )
    }
}

/// Reads the process-wide class-generation counters.
pub fn table_stats() -> TableStats {
    TableStats {
        classes_generated: CLASSES_GENERATED.load(Ordering::Relaxed),
        gen_ns: CLASS_GEN_NS.load(Ordering::Relaxed),
    }
}

/// The memoized entry of `canon_key`, if some thread already generated it.
fn lookup_class(n: usize, canon_key: u64) -> Option<&'static ClassEntry> {
    registry()[n - MIN_TABLE_DEGREE]
        .read()
        .expect("table registry poisoned")
        .get(&canon_key)
        .copied()
}

/// Generates the class of `canon_key` (no lock held; timed into
/// [`table_stats`]).
fn generate_keyed(n: usize, canon_key: u64) -> Box<ClassEntry> {
    let t0 = Instant::now();
    let mut seq = [0u8; MAX_TABLE_DEGREE];
    for (i, s) in seq.iter_mut().enumerate().take(n) {
        *s = ((canon_key >> (4 * i)) & 0xf) as u8;
    }
    let entry = Box::new(generate_class(n, &seq[..n]));
    CLASS_GEN_NS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    entry
}

/// Memoizes `entry` unless another thread got there first, in which case the
/// duplicate is dropped and the registered entry returned.
fn insert_class(n: usize, canon_key: u64, entry: Box<ClassEntry>) -> &'static ClassEntry {
    let mut w = registry()[n - MIN_TABLE_DEGREE].write().expect("table registry poisoned");
    w.entry(canon_key).or_insert_with(|| {
        CLASSES_GENERATED.fetch_add(1, Ordering::Relaxed);
        Box::leak(entry)
    })
}

/// Fetches (generating and memoizing on first use) the class entry of the
/// **canonical** sequence with packed key `canon_key`. The write lock is
/// taken only to insert: generation itself runs unlocked, so concurrent
/// lookups of other classes of the same degree never wait for it.
pub(crate) fn class_entry(n: usize, canon_key: u64) -> &'static ClassEntry {
    match lookup_class(n, canon_key) {
        Some(e) => e,
        None => insert_class(n, canon_key, generate_keyed(n, canon_key)),
    }
}

/// Eagerly generates every canonical class up to `max_degree` (clamped to
/// [`MAX_TABLE_DEGREE`]) and returns their `(classes, total POWVs)`.
/// Intended for benchmarks; flows rely on lazy generation.
pub fn prewarm(max_degree: usize) -> (usize, usize) {
    let max_degree = max_degree.min(MAX_TABLE_DEGREE);
    for n in MIN_TABLE_DEGREE..=max_degree {
        let mut perm: Vec<u8> = (0..n as u8).collect();
        permute(&mut perm, 0, &mut |seq| {
            let (key, _) = canonicalize(seq);
            let _ = class_entry(n, key);
        });
    }
    let mut classes = 0;
    let mut powvs = 0;
    for map in registry().iter().take((max_degree + 1).saturating_sub(MIN_TABLE_DEGREE)) {
        let m = map.read().expect("table registry poisoned");
        classes += m.len();
        powvs += m.values().map(|e| e.powvs.len()).sum::<usize>();
    }
    (classes, powvs)
}

/// Visits every permutation of `seq[k..]` (Heap-style recursion).
fn permute(seq: &mut [u8], k: usize, f: &mut impl FnMut(&[u8])) {
    if k + 1 >= seq.len() {
        f(seq);
        return;
    }
    for i in k..seq.len() {
        seq.swap(k, i);
        permute(seq, k + 1, f);
        seq.swap(k, i);
    }
}

// --- class generation ------------------------------------------------------

fn generate_class(n: usize, seq: &[u8]) -> ClassEntry {
    let powvs = if n == 4 { generate_exact4(seq) } else { generate_greedy(n, seq) };
    let mut s = [0u8; MAX_TABLE_DEGREE];
    s[..n].copy_from_slice(seq);
    ClassEntry { n, seq: s, powvs }
}

/// Computes the gap-crossing counts of a topology over grid nodes.
fn edge_counts(
    n: usize,
    seq: &[u8],
    steiner: &[(u8, u8)],
    edges: &[(u8, u8)],
) -> ([u8; MAX_TABLE_DEGREE - 1], [u8; MAX_TABLE_DEGREE - 1]) {
    let coord = |v: u8| -> (usize, usize) {
        let v = v as usize;
        if v < n {
            (v, seq[v] as usize)
        } else {
            let (a, b) = steiner[v - n];
            (a as usize, b as usize)
        }
    };
    let mut cx = [0u8; MAX_TABLE_DEGREE - 1];
    let mut cy = [0u8; MAX_TABLE_DEGREE - 1];
    for &(u, v) in edges {
        let (xu, yu) = coord(u);
        let (xv, yv) = coord(v);
        for c in cx.iter_mut().take(xu.max(xv)).skip(xu.min(xv)) {
            *c += 1;
        }
        for c in cy.iter_mut().take(yu.max(yv)).skip(yu.min(yv)) {
            *c += 1;
        }
    }
    (cx, cy)
}

/// Inserts a candidate POWV, keeping the set dominance-pruned: a vector that
/// is componentwise ≥ an existing one is dropped, and existing vectors
/// dominated by the newcomer are evicted.
fn push_powv(set: &mut Vec<Powv>, cand: Powv, n: usize) {
    let dominates = |a: &Powv, b: &Powv| -> bool {
        (0..n - 1).all(|g| a.cx[g] <= b.cx[g] && a.cy[g] <= b.cy[g])
    };
    if set.iter().any(|p| dominates(p, &cand)) {
        return;
    }
    set.retain(|p| !dominates(&cand, p));
    set.push(cand);
}

/// Exact degree-4 POWV enumeration: all spanning trees over the 4 pins plus
/// 0–2 non-pin Hanan-grid Steiner points, Steiner degrees forced ≥ 3 via the
/// Prüfer-multiplicity constraint. Every tree with degree-2 Steiner points is
/// dominated by its bypassed counterpart over a smaller Steiner subset (L1
/// triangle inequality), so this space contains an optimum for every gap
/// profile.
fn generate_exact4(seq: &[u8]) -> Vec<Powv> {
    let n = 4usize;
    let mut cands: Vec<(u8, u8)> = Vec::with_capacity(12);
    for a in 0..n as u8 {
        for b in 0..n as u8 {
            if seq[a as usize] != b {
                cands.push((a, b));
            }
        }
    }
    let mut set: Vec<Powv> = Vec::new();
    let mut subset: Vec<(u8, u8)> = Vec::new();
    let emit = |subset: &[(u8, u8)], set: &mut Vec<Powv>| {
        let k = n + subset.len();
        enumerate_trees(k, n, &mut |edges| {
            let (cx, cy) = edge_counts(n, seq, subset, edges);
            push_powv(
                set,
                Powv { cx, cy, steiner: subset.to_vec(), edges: edges.to_vec() },
                n,
            );
        });
    };
    emit(&subset, &mut set);
    for (i, &c1) in cands.iter().enumerate() {
        subset.clear();
        subset.push(c1);
        emit(&subset, &mut set);
        for &c2 in &cands[i + 1..] {
            subset.truncate(1);
            subset.push(c2);
            emit(&subset, &mut set);
        }
    }
    set
}

/// Enumerates every labelled spanning tree over `k` nodes in which nodes
/// `n_pins..k` (Steiner points) have degree ≥ 3, via Prüfer sequences (a
/// node's tree degree is its sequence multiplicity + 1).
fn enumerate_trees(k: usize, n_pins: usize, f: &mut impl FnMut(&[(u8, u8)])) {
    let len = k - 2;
    let mut seq = vec![0u8; len];
    let mut edges: Vec<(u8, u8)> = Vec::with_capacity(k - 1);
    loop {
        let steiner_ok = (n_pins..k).all(|s| {
            seq.iter().filter(|&&v| v as usize == s).count() >= 2
        });
        if steiner_ok {
            prufer_decode(k, &seq, &mut edges);
            f(&edges);
        }
        // Odometer increment over base-k digits.
        let mut i = 0;
        loop {
            if i == len {
                return;
            }
            seq[i] += 1;
            if (seq[i] as usize) < k {
                break;
            }
            seq[i] = 0;
            i += 1;
        }
    }
}

/// Decodes a Prüfer sequence into the edge list of the labelled tree.
fn prufer_decode(k: usize, seq: &[u8], edges: &mut Vec<(u8, u8)>) {
    edges.clear();
    let mut deg = [1u8; MAX_TABLE_DEGREE + MAX_TABLE_DEGREE - 2];
    for d in deg.iter_mut().skip(k) {
        *d = 0;
    }
    for &s in seq {
        deg[s as usize] += 1;
    }
    for &s in seq {
        let leaf = (0..k).find(|&i| deg[i] == 1).expect("a leaf always exists") as u8;
        edges.push((leaf, s));
        deg[leaf as usize] = 0;
        deg[s as usize] -= 1;
    }
    let mut rest = (0..k).filter(|&i| deg[i] == 1);
    let a = rest.next().expect("two nodes remain") as u8;
    let b = rest.next().expect("two nodes remain") as u8;
    edges.push((a, b));
}

/// Deterministic 64-bit mixer for the gap-weight profiles.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Number of gap-weight profiles driving the degree 5–9 search.
const PROFILES: u64 = 4;

/// Bounded near-optimal POWV generation for degrees 5–9: for each of a few
/// deterministic gap-weight profiles, run iterated 1-Steiner over the Hanan
/// grid (greedy MST-cost improvement), prune low-degree Steiner points, and
/// keep the non-dominated cost vectors. Each round runs Prim once and prices
/// every Hanan candidate by O(k) insertion into that tree.
fn generate_greedy(n: usize, seq: &[u8]) -> Vec<Powv> {
    generate_greedy_with(n, seq, |pts, tree, z| mst_cost_with(pts, tree, z))
}

/// [`generate_greedy`] over a pluggable candidate pricing
/// `cand_cost(round's points, their Prim tree, candidate) → MST cost of
/// points ∪ {candidate}` (the tests plug in a from-scratch Prim as oracle).
fn generate_greedy_with(
    n: usize,
    seq: &[u8],
    cand_cost: impl Fn(&mut Vec<(i64, i64)>, &PrimTree, (i64, i64)) -> i64,
) -> Vec<Powv> {
    let mut set: Vec<Powv> = Vec::new();
    let mut tree = PrimTree::default();
    for profile in 0..PROFILES {
        // Integer prefix-sum coordinates under the profile's gap weights
        // (profile 0 is the unit grid).
        let mut xc = [0i64; MAX_TABLE_DEGREE];
        let mut yc = [0i64; MAX_TABLE_DEGREE];
        for g in 0..n - 1 {
            let wx =
                if profile == 0 { 1 } else { 1 + (mix(profile * 1000 + g as u64) % 4) as i64 };
            let wy = if profile == 0 {
                1
            } else {
                1 + (mix(profile * 1000 + 500 + g as u64) % 4) as i64
            };
            xc[g + 1] = xc[g] + wx;
            yc[g + 1] = yc[g] + wy;
        }
        let mut pts: Vec<(i64, i64)> = (0..n).map(|i| (xc[i], yc[seq[i] as usize])).collect();
        let mut chosen: Vec<(u8, u8)> = Vec::new();
        // Iterated 1-Steiner: add the best-improving Hanan point until no
        // candidate reduces the MST cost (or the n − 2 Steiner cap is hit).
        while chosen.len() < n - 2 {
            let base = mst_cost(&pts, &mut tree);
            let mut best: Option<((u8, u8), i64)> = None;
            for a in 0..n as u8 {
                for b in 0..n as u8 {
                    if seq[a as usize] == b || chosen.contains(&(a, b)) {
                        continue;
                    }
                    let c = cand_cost(&mut pts, &tree, (xc[a as usize], yc[b as usize]));
                    if c < base && best.is_none_or(|(_, bc)| c < bc) {
                        best = Some(((a, b), c));
                    }
                }
            }
            let Some((cand, _)) = best else { break };
            chosen.push(cand);
            pts.push((xc[cand.0 as usize], yc[cand.1 as usize]));
        }
        mst_cost(&pts, &mut tree);
        let mut edges = tree.edges();
        prune_low_degree(n, &mut chosen, &mut edges);
        let (cx, cy) = edge_counts(n, seq, &chosen, &edges);
        push_powv(set.as_mut(), Powv { cx, cy, steiner: chosen, edges }, n);
    }
    set
}

/// Removes Steiner points of tree-degree < 3: leaves are dropped, degree-2
/// points are bypassed (never longer, by the L1 triangle inequality), with
/// node reindexing — mirroring the pruning in `hanan::build_hanan4`.
fn prune_low_degree(n_pins: usize, steiner: &mut Vec<(u8, u8)>, edges: &mut Vec<(u8, u8)>) {
    loop {
        let k = n_pins + steiner.len();
        let mut deg = [0u8; 2 * MAX_TABLE_DEGREE];
        for &(a, b) in edges.iter() {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let Some(victim) = (n_pins..k).find(|&i| deg[i] < 3) else {
            break;
        };
        let v = victim as u8;
        let mut nbrs = [0u8; 2];
        let mut nn = 0usize;
        for &(a, b) in edges.iter() {
            if a == v || b == v {
                if nn < 2 {
                    nbrs[nn] = if a == v { b } else { a };
                }
                nn += 1;
            }
        }
        edges.retain(|&(a, b)| a != v && b != v);
        if nn == 2 {
            edges.push((nbrs[0], nbrs[1]));
        }
        steiner.remove(victim - n_pins);
        for e in edges.iter_mut() {
            if e.0 > v {
                e.0 -= 1;
            }
            if e.1 > v {
                e.1 -= 1;
            }
        }
    }
}

#[inline]
fn l1(a: (i64, i64), b: (i64, i64)) -> i64 {
    (a.0 - b.0).abs() + (a.1 - b.1).abs()
}

/// The Prim tree found by [`mst_cost`], edges in insertion order: `child[i]`
/// joined through `parent[i]` at cost `weight[i]`. Point 0 is the root and a
/// parent always precedes its children, so the reverse order is bottom-up.
struct PrimTree {
    parent: [u8; 2 * MAX_TABLE_DEGREE],
    child: [u8; 2 * MAX_TABLE_DEGREE],
    weight: [i64; 2 * MAX_TABLE_DEGREE],
    len: usize,
}

impl Default for PrimTree {
    fn default() -> Self {
        PrimTree {
            parent: [0; 2 * MAX_TABLE_DEGREE],
            child: [0; 2 * MAX_TABLE_DEGREE],
            weight: [0; 2 * MAX_TABLE_DEGREE],
            len: 0,
        }
    }
}

impl PrimTree {
    /// The tree's edges `(parent, child)`, in insertion order.
    fn edges(&self) -> Vec<(u8, u8)> {
        self.parent.iter().copied().zip(self.child).take(self.len).collect()
    }
}

/// MST cost over integer points (Prim, O(k²), deterministic tie-breaks);
/// records the tree in `tree`.
fn mst_cost(pts: &[(i64, i64)], tree: &mut PrimTree) -> i64 {
    let k = pts.len();
    let mut in_tree = [false; 2 * MAX_TABLE_DEGREE];
    let mut best = [(i64::MAX, 0u8); 2 * MAX_TABLE_DEGREE];
    in_tree[0] = true;
    for j in 1..k {
        best[j] = (l1(pts[0], pts[j]), 0);
    }
    let mut total = 0i64;
    tree.len = 0;
    for _ in 1..k {
        let mut u = usize::MAX;
        let mut ud = i64::MAX;
        for (j, (&it, &(b, _))) in in_tree.iter().zip(best.iter()).enumerate().take(k) {
            if !it && b < ud {
                ud = b;
                u = j;
            }
        }
        in_tree[u] = true;
        total += ud;
        (tree.parent[tree.len], tree.child[tree.len], tree.weight[tree.len]) =
            (best[u].1, u as u8, ud);
        tree.len += 1;
        for j in 0..k {
            if !in_tree[j] {
                let d = l1(pts[u], pts[j]);
                if d < best[j].0 {
                    best[j] = (d, u as u8);
                }
            }
        }
    }
    total
}

/// MST cost of `pts ∪ {z}` given the MST `tree` of `pts`, by O(k) vertex
/// insertion (Chin & Houck 1978). Sweeping the tree edges bottom-up, `t[v]`
/// is the cheapest edge able to connect `z` to what hangs at `v`; of that
/// edge and the tree edge above `v`, the cheaper one stays in the new MST and
/// the dearer one is offered to the parent. The cost of an MST is unique, so
/// this equals [`mst_cost`] of the extended point set.
fn mst_cost_with(pts: &[(i64, i64)], tree: &PrimTree, z: (i64, i64)) -> i64 {
    let mut t = [0i64; 2 * MAX_TABLE_DEGREE];
    for (tv, &p) in t.iter_mut().zip(pts) {
        *tv = l1(p, z);
    }
    let mut total = 0i64;
    for i in (0..tree.len).rev() {
        let (c, p, w) = (tree.child[i] as usize, tree.parent[i] as usize, tree.weight[i]);
        total += t[c].min(w);
        t[p] = t[p].min(t[c].max(w));
    }
    total + t[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_roundtrip_points() {
        for n in 4..=9usize {
            for t in 0..8u8 {
                for a in 0..n {
                    for b in 0..n {
                        let (ca, cb) = transform_point(a, b, n, t);
                        assert_eq!(untransform_point(ca, cb, n, t), (a, b));
                    }
                }
            }
        }
    }

    #[test]
    fn canonicalize_is_transform_invariant() {
        // All 8 symmetries of a sequence must land on the same canonical key.
        let seq = [2u8, 0, 3, 1, 4];
        let n = seq.len();
        let (key0, _) = canonicalize(&seq);
        for t in 0..8u8 {
            let mut m = [0u8; MAX_TABLE_DEGREE];
            for (a, &b) in seq.iter().enumerate() {
                let (ca, cb) = transform_point(a, b as usize, n, t);
                m[ca] = cb as u8;
            }
            let (key, _) = canonicalize(&m[..n]);
            assert_eq!(key, key0, "transform {t} changed the canonical key");
        }
    }

    #[test]
    fn exact4_matches_hanan_on_unit_grid() {
        use dtp_netlist::Point;
        // Every degree-4 sequence, embedded on the unit grid: the table's
        // cheapest POWV must equal the exact Hanan construction. Unit gaps
        // are symmetry-invariant, so canonical-frame costs compare directly.
        let mut perm = [0u8, 1, 2, 3];
        super::permute(&mut perm, 0, &mut |seq| {
            let pins: Vec<Point> =
                (0..4).map(|i| Point::new(i as f64, seq[i] as f64)).collect();
            let exact = crate::SteinerTree::build(&pins).wirelength();
            let (key, _) = canonicalize(seq);
            let e = class_entry(4, key);
            let gx = [1.0; MAX_TABLE_DEGREE - 1];
            let gy = [1.0; MAX_TABLE_DEGREE - 1];
            let best = e
                .powvs
                .iter()
                .map(|p| powv_cost(p, &gx, &gy, 4))
                .fold(f64::INFINITY, f64::min);
            assert!((best - exact).abs() < 1e-9, "seq {seq:?}: table {best} vs exact {exact}");
        });
    }

    #[test]
    fn powv_sets_are_small_and_nonempty() {
        let (c4, p4) = prewarm(4);
        assert!(c4 >= 1 && p4 >= c4);
        let (c5, p5) = prewarm(5);
        assert!(c5 > c4 && p5 > p4);
        // Dominance pruning keeps the sets tiny (FLUTE reports ~2–3 POWVs on
        // average per class).
        for map in &registry()[..2] {
            for e in map.read().unwrap().values() {
                assert!(!e.powvs.is_empty());
                assert!(e.powvs.len() <= 32, "POWV set exploded: {}", e.powvs.len());
            }
        }
    }

    /// The generator this module shipped before candidates were priced by
    /// insertion: a from-scratch Prim per Hanan candidate.
    fn generate_greedy_reference(n: usize, seq: &[u8]) -> Vec<Powv> {
        generate_greedy_with(n, seq, |pts, _, z| {
            pts.push(z);
            let c = mst_cost(pts, &mut PrimTree::default());
            pts.pop();
            c
        })
    }

    fn assert_same_powvs(n: usize, seq: &[u8]) {
        let (new, old) = (generate_greedy(n, seq), generate_greedy_reference(n, seq));
        assert_eq!(new.len(), old.len(), "seq {seq:?}: POWV count");
        for (a, b) in new.iter().zip(&old) {
            assert!(
                a.cx == b.cx && a.cy == b.cy && a.steiner == b.steiner && a.edges == b.edges,
                "seq {seq:?}: {a:?} != {b:?}"
            );
        }
    }

    // Two tests, so the (debug-build-slow) oracle runs on two threads.
    #[test]
    fn insertion_pricing_reproduces_every_class_of_degree_5_to_8() {
        for n in 5..=8usize {
            let mut keys = std::collections::BTreeSet::new();
            let mut perm: Vec<u8> = (0..n as u8).collect();
            permute(&mut perm, 0, &mut |seq| {
                keys.insert(canonicalize(seq).0);
            });
            for &key in &keys {
                let seq: Vec<u8> = (0..n).map(|i| ((key >> (4 * i)) & 0xf) as u8).collect();
                assert_same_powvs(n, &seq);
            }
        }
    }

    #[test]
    fn insertion_pricing_reproduces_sampled_classes_of_degree_9() {
        // Every 64th permutation: 5 670 sequences.
        let mut perm: Vec<u8> = (0..9).collect();
        let mut count = 0usize;
        permute(&mut perm, 0, &mut |seq| {
            if count.is_multiple_of(64) {
                assert_same_powvs(9, seq);
            }
            count += 1;
        });
        assert!(count / 64 >= 5000);
    }

    #[test]
    fn racing_generators_agree_on_one_entry() {
        // Both threads miss, both generate, both insert: the barriers force
        // exactly the interleaving `class_entry` allows. (No other test
        // touches this degree-9 class; if one ever does, the lookups hit and
        // the assertions below still hold.)
        let seq = [3u8, 7, 1, 8, 0, 5, 2, 6, 4];
        let (key, _) = canonicalize(&seq);
        let barrier = std::sync::Barrier::new(2);
        let run = || {
            let miss = lookup_class(9, key);
            barrier.wait();
            let boxed = generate_keyed(9, key);
            barrier.wait();
            (miss.is_none(), insert_class(9, key, boxed))
        };
        let ((miss_a, a), (miss_b, b)) = std::thread::scope(|s| {
            let h = s.spawn(run);
            let a = run();
            (a, h.join().expect("racing thread panicked"))
        });
        assert_eq!(miss_a, miss_b);
        assert!(std::ptr::eq(a, b), "the race registered two entries");
        assert!(std::ptr::eq(a, class_entry(9, key)));
        assert_eq!(pack_seq(&a.seq[..9]), key);
        assert!(!a.powvs.is_empty());
    }

    #[test]
    fn prufer_decode_yields_spanning_trees() {
        let mut edges = Vec::new();
        prufer_decode(4, &[0, 0], &mut edges);
        assert_eq!(edges.len(), 3);
        // Star around node 0.
        assert!(edges.iter().all(|&(a, b)| a == 0 || b == 0));
    }
}
