//! The variant space of a system: every combination of cluster choices.
//!
//! The variant selections of the different interfaces of a system may be related or
//! independent (Section 1 of the paper). [`VariantSpace`] describes the independent
//! cross product; related selections can be expressed by filtering the enumeration.
//!
//! The cross product is the object that explodes combinatorially (`k` interfaces of
//! `n` variants each span `n^k` combinations), so the space never materializes it:
//! [`VariantSpace::choices_iter`] walks the product lazily as a mixed-radix counter
//! with `O(interfaces)` state, and [`Iterator::nth`] jumps in `O(interfaces)` time,
//! which makes strided sharding (`iter.skip(s).step_by(k)`) cheap. The eager
//! [`VariantSpace::choices`] survives as a thin `collect()` wrapper for the paper-scale
//! fidelity tests.
//!
//! Interface and cluster names are interned [`Sym`] symbols, so a [`VariantChoice`] is
//! a compact vector of `u32` pairs rather than a string map.

use serde::{Deserialize, Serialize};
use std::fmt;

use spi_model::json::{FromJson, JsonError, JsonResult, JsonValue, ToJson};
use spi_model::Sym;

/// A complete choice: one cluster per interface.
///
/// Stored as interned symbol pairs sorted by interface *name* (matching the
/// historical `BTreeMap<String, String>` iteration order), so equality and
/// lookups never touch string contents beyond the one-time interning.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VariantChoice {
    /// `(interface, cluster)` symbol pairs, sorted by interface name.
    selections: Vec<(Sym, Sym)>,
}

impl VariantChoice {
    /// Creates an empty choice.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects `cluster` for `interface`, returning `self` for chaining.
    pub fn with(mut self, interface: impl AsRef<str>, cluster: impl AsRef<str>) -> Self {
        self.select(interface, cluster);
        self
    }

    /// Selects `cluster` for `interface`.
    pub fn select(&mut self, interface: impl AsRef<str>, cluster: impl AsRef<str>) {
        self.select_syms(
            Sym::intern(interface.as_ref()),
            Sym::intern(cluster.as_ref()),
        );
    }

    /// Selects `cluster` for `interface`, both already interned.
    pub fn select_syms(&mut self, interface: Sym, cluster: Sym) {
        match self.position(interface.as_str()) {
            Ok(index) => self.selections[index].1 = cluster,
            Err(index) => self.selections.insert(index, (interface, cluster)),
        }
    }

    /// Binary-searches the insertion point of `interface` by name.
    fn position(&self, interface: &str) -> Result<usize, usize> {
        self.selections
            .binary_search_by(|(existing, _)| existing.as_str().cmp(interface))
    }

    /// The cluster chosen for `interface`, if any.
    pub fn cluster_for(&self, interface: &str) -> Option<&'static str> {
        self.position(interface)
            .ok()
            .map(|index| self.selections[index].1.as_str())
    }

    /// The cluster symbol chosen for `interface`, if any (no string comparison when
    /// the interface symbol is already at hand — used by the flattening hot path).
    pub fn cluster_sym_for(&self, interface: Sym) -> Option<Sym> {
        self.selections
            .iter()
            .find(|(existing, _)| *existing == interface)
            .map(|(_, cluster)| *cluster)
    }

    /// Iterates over `(interface, cluster)` pairs in interface-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
        self.selections
            .iter()
            .map(|(interface, cluster)| (interface.as_str(), cluster.as_str()))
    }

    /// Iterates over `(interface, cluster)` symbol pairs in interface-name order.
    pub fn iter_syms(&self) -> impl Iterator<Item = (Sym, Sym)> + '_ {
        self.selections.iter().copied()
    }

    /// Number of interfaces covered by this choice.
    pub fn len(&self) -> usize {
        self.selections.len()
    }

    /// Returns `true` if the choice covers no interface.
    pub fn is_empty(&self) -> bool {
        self.selections.is_empty()
    }
}

impl PartialOrd for VariantChoice {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for VariantChoice {
    /// Lexicographic over the `(interface, cluster)` *name* pairs, matching the
    /// ordering of the historical `BTreeMap<String, String>` representation.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl fmt::Display for VariantChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (index, (interface, cluster)) in self.iter().enumerate() {
            if index > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{interface} = {cluster}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(String, String)> for VariantChoice {
    fn from_iter<I: IntoIterator<Item = (String, String)>>(iter: I) -> Self {
        let mut choice = VariantChoice::new();
        for (interface, cluster) in iter {
            choice.select(&interface, &cluster);
        }
        choice
    }
}

impl FromIterator<(Sym, Sym)> for VariantChoice {
    fn from_iter<I: IntoIterator<Item = (Sym, Sym)>>(iter: I) -> Self {
        let mut choice = VariantChoice::new();
        for (interface, cluster) in iter {
            choice.select_syms(interface, cluster);
        }
        choice
    }
}

/// Wire form: an object of `{"interface": "cluster"}` members in interface-name
/// order. Symbols cross the boundary as strings (see the `Sym` impls in
/// [`spi_model::json`]) — the raw interner indices are process-local.
impl ToJson for VariantChoice {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.iter()
                .map(|(interface, cluster)| (interface.to_string(), JsonValue::string(cluster)))
                .collect(),
        )
    }
}

impl FromJson for VariantChoice {
    fn from_json(value: &JsonValue) -> JsonResult<VariantChoice> {
        let members = value
            .as_object()
            .ok_or_else(|| JsonError::new("expected an object for VariantChoice"))?;
        let mut choice = VariantChoice::new();
        for (interface, cluster) in members {
            let cluster = cluster
                .as_str()
                .ok_or_else(|| JsonError::new("expected a cluster name string"))?;
            choice.select(interface, cluster);
        }
        Ok(choice)
    }
}

/// The cross product of the cluster choices of every interface of a system.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VariantSpace {
    axes: Vec<(Sym, Vec<Sym>)>,
    /// Axis indices in interface-*name* order, shadowed duplicates removed
    /// (derived from `axes` at construction): lets [`choice_at`](Self::choice_at)
    /// emit the sorted selection vector of a [`VariantChoice`] directly, with no
    /// per-element string comparison or insertion sort on the decode hot path.
    sorted_axes: Vec<u32>,
}

impl VariantSpace {
    /// Creates a space from `(interface, clusters)` axes, interning every name.
    pub fn new(axes: Vec<(String, Vec<String>)>) -> Self {
        Self::from_syms(
            axes.into_iter()
                .map(|(interface, clusters)| {
                    (
                        Sym::intern(&interface),
                        clusters.iter().map(|c| Sym::intern(c)).collect(),
                    )
                })
                .collect(),
        )
    }

    /// Creates a space from already-interned `(interface, clusters)` axes.
    pub fn from_syms(axes: Vec<(Sym, Vec<Sym>)>) -> Self {
        let mut order: Vec<u32> = (0..axes.len() as u32).collect();
        order.sort_by(|&a, &b| {
            axes[a as usize]
                .0
                .as_str()
                .cmp(axes[b as usize].0.as_str())
                .then(a.cmp(&b))
        });
        // Duplicate interface names: the historical map-based choice kept the value
        // of the *last* axis inserted, so earlier same-name axes are shadowed.
        let mut sorted_axes: Vec<u32> = Vec::with_capacity(order.len());
        for index in order {
            match sorted_axes.last_mut() {
                Some(last) if axes[*last as usize].0 == axes[index as usize].0 => *last = index,
                _ => sorted_axes.push(index),
            }
        }
        VariantSpace { axes, sorted_axes }
    }

    /// The `(interface, clusters)` axes in attachment order.
    pub fn axes(&self) -> &[(Sym, Vec<Sym>)] {
        &self.axes
    }

    /// Number of variant combinations (product of the per-interface counts; an
    /// interface with no clusters contributes a factor of zero, and a space with no
    /// axes spans no combination).
    ///
    /// Saturates at `usize::MAX` for spaces too large to index.
    pub fn count(&self) -> usize {
        if self.axes.is_empty() {
            return 0;
        }
        self.axes
            .iter()
            .map(|(_, clusters)| clusters.len())
            .try_fold(1usize, |product, len| product.checked_mul(len))
            .unwrap_or(usize::MAX)
    }

    /// Decodes the combination at `index` (lexicographic in axis order, last axis
    /// varying fastest) in `O(interfaces)` time, without enumerating predecessors.
    pub fn choice_at(&self, index: usize) -> Option<VariantChoice> {
        let mut digits = Vec::new();
        if !self.digits_at(index, &mut digits) {
            return None;
        }
        Some(self.choice_from_digits(&digits))
    }

    /// Decodes the mixed-radix digits (one per axis, in axis order, last axis
    /// least significant) of the combination at lexicographic `index` into
    /// `digits`, reusing its allocation. Returns `false` when the index is out
    /// of range.
    pub(crate) fn digits_at(&self, index: usize, digits: &mut Vec<u32>) -> bool {
        if index >= self.count() {
            return false;
        }
        digits.clear();
        digits.resize(self.axes.len(), 0);
        let mut remainder = index;
        for (digit, (_, clusters)) in digits.iter_mut().zip(&self.axes).rev() {
            *digit = (remainder % clusters.len()) as u32;
            remainder /= clusters.len();
        }
        true
    }

    /// Decodes the digits of the `rank`-th combination of the **reflected
    /// mixed-radix Gray order** into `digits` and returns its canonical
    /// lexicographic index. Consecutive ranks differ in exactly one digit.
    ///
    /// Returns `None` when `rank` is out of range or the space is too large to
    /// index (`count()` saturated).
    pub(crate) fn gray_digits_at(&self, rank: usize, digits: &mut Vec<u32>) -> Option<usize> {
        let total = self.count();
        if rank >= total || total == usize::MAX {
            return None;
        }
        digits.clear();
        digits.resize(self.axes.len(), 0);
        // Standard reflected-Gray decode, most-significant axis first: a level
        // whose decoded digit is odd traverses the levels below it in reverse,
        // which the reflection of `remainder` accounts for.
        let mut remainder = rank;
        let mut suffix = total;
        let mut reflect = false;
        let mut index = 0usize;
        for (digit, (_, clusters)) in digits.iter_mut().zip(&self.axes) {
            let radix = clusters.len();
            suffix /= radix;
            if reflect {
                remainder = radix * suffix - 1 - remainder;
            }
            let value = remainder / suffix;
            remainder %= suffix;
            reflect = value % 2 == 1;
            *digit = value as u32;
            index += value * suffix;
        }
        Some(index)
    }

    /// The canonical lexicographic index of the `rank`-th combination of the
    /// Gray-code order walked by [`choices_delta_iter`](Self::choices_delta_iter):
    /// `choice_at(gray_index_at(rank))` is the choice that walk yields at
    /// `rank`. `O(interfaces)`, so Gray-rank-strided shards can map their ranks
    /// to reportable indices without walking.
    pub fn gray_index_at(&self, rank: usize) -> Option<usize> {
        let mut digits = Vec::new();
        self.gray_digits_at(rank, &mut digits)
    }

    /// The Gray ranks shard `shard` of `count` owns: the contiguous range
    /// `[shard·N/count, (shard+1)·N/count)` of the Gray walk over the
    /// `N = count()` combinations. Consecutive ranks of one shard differ in
    /// exactly one axis, so a shard drained in rank order patches one cluster
    /// per step; the ranges of shards `0..count` tile `0..N` exactly once.
    /// Empty for `shard >= count`.
    ///
    /// ```rust
    /// use spi_variants::VariantSpace;
    ///
    /// let space = VariantSpace::new(vec![
    ///     ("if1".into(), vec!["a".into(), "b".into()]),
    ///     ("if2".into(), vec!["x".into(), "y".into(), "z".into()]),
    /// ]);
    /// assert_eq!(space.shard_ranks(0, 4), 0..1);
    /// assert_eq!(space.shard_ranks(3, 4), 4..6);
    /// ```
    pub fn shard_ranks(&self, shard: usize, count: usize) -> std::ops::Range<usize> {
        if shard >= count {
            return 0..0;
        }
        // 128-bit products: `shard · N` overflows `usize` for big spaces.
        let total = self.count() as u128;
        let bound = |shard: usize| (shard as u128 * total / count as u128) as usize;
        bound(shard)..bound(shard + 1)
    }

    /// Emits the choice for a decoded digit vector in the precomputed name
    /// order — no sorting per choice.
    pub(crate) fn choice_from_digits(&self, digits: &[u32]) -> VariantChoice {
        let mut choice = VariantChoice::default();
        self.choice_from_digits_into(digits, &mut choice);
        choice
    }

    /// Writes the choice for `digits` (one cluster position per axis, in axis
    /// order — e.g. [`DeltaFlattener::digits`](crate::DeltaFlattener::digits))
    /// into `choice`, reusing its allocation: the per-variant decode of a hot
    /// loop that keeps one choice buffer.
    ///
    /// # Panics
    ///
    /// Panics if `digits` is shorter than the axis list or a digit is out of
    /// its axis's range.
    pub fn choice_from_digits_into(&self, digits: &[u32], choice: &mut VariantChoice) {
        choice.selections.clear();
        choice
            .selections
            .extend(self.sorted_axes.iter().map(|&axis| {
                let (interface, clusters) = &self.axes[axis as usize];
                (*interface, clusters[digits[axis as usize] as usize])
            }));
        debug_assert!(
            choice
                .selections
                .windows(2)
                .all(|w| w[0].0.as_str() < w[1].0.as_str()),
            "selection vector must be strictly sorted by interface name"
        );
    }

    /// Lazily enumerates every combination as a [`VariantChoice`], in the same
    /// lexicographic order as the historical eager [`choices`](Self::choices).
    ///
    /// The iterator keeps `O(interfaces)` state — enumerating a `2^20`-combination
    /// space allocates per yielded choice, never for the whole product — and
    /// implements [`ExactSizeIterator`], [`DoubleEndedIterator`] and an
    /// `O(interfaces)` [`Iterator::nth`], so strided shards
    /// (`choices_iter().skip(s).step_by(k)`) skip without decoding intermediate
    /// combinations.
    ///
    /// ```rust
    /// use spi_variants::VariantSpace;
    ///
    /// let space = VariantSpace::new(vec![
    ///     ("if1".into(), vec!["a".into(), "b".into()]),
    ///     ("if2".into(), vec!["x".into(), "y".into(), "z".into()]),
    /// ]);
    /// assert_eq!(space.choices_iter().len(), 6);
    /// let third = space.choices_iter().nth(2).unwrap();
    /// assert_eq!(third.cluster_for("if2"), Some("z"));
    /// // Shard 1 of 2, strided: indices 1, 3, 5.
    /// assert_eq!(space.choices_iter().skip(1).step_by(2).count(), 3);
    /// ```
    pub fn choices_iter(&self) -> ChoicesIter<'_> {
        ChoicesIter {
            space: self,
            next: 0,
            end: self.count(),
        }
    }

    /// Eagerly enumerates every combination (lexicographic in axis order).
    ///
    /// Deprecated in spirit: this materializes the full cross product and is kept as
    /// a thin `collect()` of [`choices_iter`](Self::choices_iter) for the
    /// paper-fidelity tests and small spaces. New code should iterate lazily.
    pub fn choices(&self) -> Vec<VariantChoice> {
        self.choices_iter().collect()
    }

    /// Lazily enumerates every combination in **reflected mixed-radix Gray
    /// order**: consecutive yields change the cluster of exactly one axis. Each
    /// yield is `(index, changed_axis, choice)`, where `index` is the
    /// combination's canonical lexicographic position (what
    /// [`choice_at`](Self::choice_at) and the exploration shards report) and
    /// `changed_axis` is `Some(a)` — an index into [`axes`](Self::axes) — when
    /// the yield differs from the *previously yielded* combination in exactly
    /// that one axis (`None` on the first yield and after a multi-axis
    /// [`Iterator::nth`] jump).
    ///
    /// The walk visits every combination exactly once, `nth` jumps in
    /// `O(interfaces)` time, and shard-striding over **Gray ranks**
    /// (`choices_delta_iter().skip(s).step_by(k)`) partitions the space exactly
    /// like striding [`choices_iter`](Self::choices_iter) over lexicographic
    /// indices does — this is the enumeration behind the delta-flattening path.
    ///
    /// ```rust
    /// use spi_variants::VariantSpace;
    ///
    /// let space = VariantSpace::new(vec![
    ///     ("if1".into(), vec!["a".into(), "b".into()]),
    ///     ("if2".into(), vec!["x".into(), "y".into(), "z".into()]),
    /// ]);
    /// let walk: Vec<_> = space.choices_delta_iter().collect();
    /// assert_eq!(walk.len(), 6);
    /// // Every step past the first changes exactly one axis.
    /// assert!(walk[1..].iter().all(|(_, changed, _)| changed.is_some()));
    /// // The canonical indices cover the space exactly once.
    /// let mut indices: Vec<usize> = walk.iter().map(|(i, _, _)| *i).collect();
    /// indices.sort_unstable();
    /// assert_eq!(indices, (0..6).collect::<Vec<_>>());
    /// ```
    pub fn choices_delta_iter(&self) -> DeltaChoicesIter<'_> {
        let total = self.count();
        DeltaChoicesIter {
            space: self,
            next_rank: 0,
            // A saturated count cannot be Gray-decoded (the suffix products
            // are unrepresentable); such spaces yield nothing, like an empty one.
            end: if total == usize::MAX { 0 } else { total },
            digits: Vec::new(),
            previous: Vec::new(),
        }
    }
}

/// Wire form: an array of `{"interface": ..., "clusters": [...]}` axes in
/// attachment order (axis order is semantic — it fixes the mixed-radix
/// numbering of [`VariantSpace::choice_at`] — so a map representation would
/// lose information).
impl ToJson for VariantSpace {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.axes
                .iter()
                .map(|(interface, clusters)| {
                    JsonValue::object([
                        ("interface", interface.to_json()),
                        ("clusters", clusters.to_json()),
                    ])
                })
                .collect(),
        )
    }
}

/// Rebuilds the space through [`VariantSpace::from_syms`], so the derived
/// `sorted_axes` decode table is recomputed for the receiving process — it
/// indexes by interned symbol order, which does not survive the trip.
impl FromJson for VariantSpace {
    fn from_json(value: &JsonValue) -> JsonResult<VariantSpace> {
        let axes = value
            .as_array()
            .ok_or_else(|| JsonError::new("expected an array for VariantSpace"))?
            .iter()
            .map(|axis| {
                let interface = Sym::from_json(axis.require("interface")?)?;
                let clusters = Vec::<Sym>::from_json(axis.require("clusters")?)?;
                Ok((interface, clusters))
            })
            .collect::<JsonResult<Vec<_>>>()?;
        Ok(VariantSpace::from_syms(axes))
    }
}

impl fmt::Display for VariantSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (interface, clusters) in &self.axes {
            let names: Vec<&str> = clusters.iter().map(|c| c.as_str()).collect();
            writeln!(f, "{interface}: {}", names.join(" | "))?;
        }
        write!(f, "total combinations: {}", self.count())
    }
}

/// Lazy mixed-radix enumeration of a [`VariantSpace`]; see
/// [`VariantSpace::choices_iter`].
#[derive(Debug, Clone)]
pub struct ChoicesIter<'a> {
    space: &'a VariantSpace,
    /// Index of the next combination to yield.
    next: usize,
    /// One past the last combination to yield.
    end: usize,
}

impl Iterator for ChoicesIter<'_> {
    type Item = VariantChoice;

    fn next(&mut self) -> Option<VariantChoice> {
        if self.next >= self.end {
            return None;
        }
        let choice = self.space.choice_at(self.next);
        self.next += 1;
        choice
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.end - self.next;
        (remaining, Some(remaining))
    }

    fn nth(&mut self, n: usize) -> Option<VariantChoice> {
        self.next = self.next.saturating_add(n).min(self.end);
        self.next()
    }

    fn count(self) -> usize {
        self.end - self.next
    }

    fn last(mut self) -> Option<VariantChoice> {
        self.next_back()
    }
}

impl DoubleEndedIterator for ChoicesIter<'_> {
    fn next_back(&mut self) -> Option<VariantChoice> {
        if self.next >= self.end {
            return None;
        }
        self.end -= 1;
        self.space.choice_at(self.end)
    }
}

impl ExactSizeIterator for ChoicesIter<'_> {}

impl std::iter::FusedIterator for ChoicesIter<'_> {}

/// Lazy Gray-order enumeration of a [`VariantSpace`]; see
/// [`VariantSpace::choices_delta_iter`].
#[derive(Debug, Clone)]
pub struct DeltaChoicesIter<'a> {
    space: &'a VariantSpace,
    /// Gray rank of the next combination to yield.
    next_rank: usize,
    /// One past the last Gray rank to yield.
    end: usize,
    /// Scratch digit buffer, reused across yields.
    digits: Vec<u32>,
    /// Digits of the previously yielded combination (empty before the first
    /// yield), for the `changed_axis` diff.
    previous: Vec<u32>,
}

impl Iterator for DeltaChoicesIter<'_> {
    type Item = (usize, Option<usize>, VariantChoice);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next_rank >= self.end {
            return None;
        }
        let index = self
            .space
            .gray_digits_at(self.next_rank, &mut self.digits)
            .expect("rank below count decodes");
        self.next_rank += 1;
        let changed_axis = if self.previous.len() == self.digits.len() {
            let mut differing = self
                .previous
                .iter()
                .zip(&self.digits)
                .enumerate()
                .filter(|(_, (before, after))| before != after)
                .map(|(axis, _)| axis);
            match (differing.next(), differing.next()) {
                (Some(axis), None) => Some(axis),
                _ => None,
            }
        } else {
            None
        };
        self.previous.clone_from(&self.digits);
        Some((
            index,
            changed_axis,
            self.space.choice_from_digits(&self.digits),
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.end - self.next_rank;
        (remaining, Some(remaining))
    }

    /// Jumps in `O(interfaces)` (one Gray decode at the target rank); the
    /// subsequent yield diffs against the last *yielded* combination, so its
    /// `changed_axis` is `None` unless the jump happened to change one axis.
    fn nth(&mut self, n: usize) -> Option<Self::Item> {
        self.next_rank = self.next_rank.saturating_add(n).min(self.end);
        self.next()
    }

    fn count(self) -> usize {
        self.end - self.next_rank
    }
}

impl ExactSizeIterator for DeltaChoicesIter<'_> {}

impl std::iter::FusedIterator for DeltaChoicesIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> VariantSpace {
        VariantSpace::new(vec![
            ("if1".into(), vec!["a".into(), "b".into()]),
            ("if2".into(), vec!["x".into(), "y".into(), "z".into()]),
        ])
    }

    #[test]
    fn count_is_product_of_axis_sizes() {
        assert_eq!(space().count(), 6);
        assert_eq!(VariantSpace::default().count(), 0);
    }

    #[test]
    fn choices_enumerate_the_cross_product() {
        let choices = space().choices();
        assert_eq!(choices.len(), 6);
        assert_eq!(choices[0].cluster_for("if1"), Some("a"));
        assert_eq!(choices[0].cluster_for("if2"), Some("x"));
        assert_eq!(choices[5].cluster_for("if1"), Some("b"));
        assert_eq!(choices[5].cluster_for("if2"), Some("z"));
        // All choices are distinct.
        let mut unique = choices.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 6);
    }

    #[test]
    fn lazy_iterator_agrees_with_eager_enumeration() {
        let space = space();
        let eager = space.choices();
        let lazy: Vec<VariantChoice> = space.choices_iter().collect();
        assert_eq!(eager, lazy);
        assert_eq!(space.choices_iter().len(), eager.len());
    }

    #[test]
    fn nth_jumps_without_walking() {
        let space = space();
        let eager = space.choices();
        for start in 0..6 {
            let mut iter = space.choices_iter();
            assert_eq!(iter.nth(start).as_ref(), Some(&eager[start]));
            // The iterator continues right after the jump target.
            if start + 1 < 6 {
                assert_eq!(iter.next().as_ref(), Some(&eager[start + 1]));
            } else {
                assert_eq!(iter.next(), None);
            }
        }
        assert_eq!(space.choices_iter().nth(6), None);
    }

    #[test]
    fn strided_shards_partition_the_space() {
        let space = space();
        let eager = space.choices();
        let shards = 4usize;
        let mut recombined: Vec<VariantChoice> = Vec::new();
        for shard in 0..shards {
            recombined.extend(space.choices_iter().skip(shard).step_by(shards));
        }
        recombined.sort();
        let mut expected = eager.clone();
        expected.sort();
        assert_eq!(recombined, expected);
    }

    #[test]
    fn double_ended_enumeration_reverses() {
        let space = space();
        let mut forward = space.choices();
        forward.reverse();
        let backward: Vec<VariantChoice> = space.choices_iter().rev().collect();
        assert_eq!(forward, backward);
        assert_eq!(space.choices_iter().last(), forward.first().cloned());
    }

    #[test]
    fn empty_space_has_no_choices() {
        assert!(VariantSpace::default().choices().is_empty());
        assert_eq!(VariantSpace::default().choices_iter().count(), 0);
    }

    #[test]
    fn axis_with_no_clusters_collapses_the_space() {
        let space = VariantSpace::new(vec![
            ("if1".into(), vec!["a".into()]),
            ("broken".into(), vec![]),
        ]);
        assert_eq!(space.count(), 0);
        assert!(space.choices().is_empty());
        assert_eq!(space.choices_iter().count(), 0);
        assert_eq!(space.choice_at(0), None);
    }

    #[test]
    fn large_space_is_enumerable_without_materialization() {
        // 2^20 combinations: the eager path would allocate a million choices; the lazy
        // path touches exactly the ones asked for.
        let axes: Vec<(String, Vec<String>)> = (0..20)
            .map(|i| (format!("wide_if{i}"), vec!["a".into(), "b".into()]))
            .collect();
        let space = VariantSpace::new(axes);
        assert_eq!(space.count(), 1 << 20);
        assert_eq!(space.choices_iter().len(), 1 << 20);
        let last = space.choices_iter().nth((1 << 20) - 1).unwrap();
        assert!(last.iter().all(|(_, cluster)| cluster == "b"));
        let first = space.choices_iter().next().unwrap();
        assert!(first.iter().all(|(_, cluster)| cluster == "a"));
    }

    /// Digits of `choice` in axis order, read back through the axis cluster lists.
    fn digits_of(space: &VariantSpace, choice: &VariantChoice) -> Vec<usize> {
        space
            .axes()
            .iter()
            .map(|(interface, clusters)| {
                let chosen = choice.cluster_sym_for(*interface).unwrap();
                clusters.iter().position(|c| *c == chosen).unwrap()
            })
            .collect()
    }

    #[test]
    fn gray_walk_changes_exactly_one_axis_per_step() {
        let space = VariantSpace::new(vec![
            ("if1".into(), vec!["a".into(), "b".into()]),
            ("if2".into(), vec!["x".into(), "y".into(), "z".into()]),
            ("if3".into(), vec!["p".into(), "q".into()]),
        ]);
        let walk: Vec<_> = space.choices_delta_iter().collect();
        assert_eq!(walk.len(), space.count());
        assert_eq!(walk[0].1, None);
        for (rank, window) in walk.windows(2).enumerate() {
            let before = digits_of(&space, &window[0].2);
            let after = digits_of(&space, &window[1].2);
            let differing: Vec<usize> = (0..before.len())
                .filter(|&axis| before[axis] != after[axis])
                .collect();
            assert_eq!(
                differing.len(),
                1,
                "step {rank} -> {} must change exactly one axis",
                rank + 1
            );
            assert_eq!(window[1].1, Some(differing[0]));
        }
    }

    #[test]
    fn gray_walk_is_a_permutation_of_the_lexicographic_order() {
        let space = VariantSpace::new(vec![
            ("if1".into(), vec!["a".into(), "b".into(), "c".into()]),
            ("if2".into(), vec!["x".into(), "y".into()]),
            ("if3".into(), vec!["p".into(), "q".into(), "r".into()]),
        ]);
        let walk: Vec<_> = space.choices_delta_iter().collect();
        let mut indices: Vec<usize> = walk.iter().map(|(index, _, _)| *index).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..space.count()).collect::<Vec<_>>());
        // The reported index really is the choice's lexicographic position.
        for (index, _, choice) in &walk {
            assert_eq!(space.choice_at(*index).as_ref(), Some(choice));
        }
    }

    #[test]
    fn gray_index_at_matches_the_walk() {
        let space = space();
        for (rank, (index, _, _)) in space.choices_delta_iter().enumerate() {
            assert_eq!(space.gray_index_at(rank), Some(index));
        }
        assert_eq!(space.gray_index_at(space.count()), None);
        assert_eq!(VariantSpace::default().gray_index_at(0), None);
    }

    #[test]
    fn gray_nth_jumps_and_resumes_the_walk() {
        let space = VariantSpace::new(vec![
            ("if1".into(), vec!["a".into(), "b".into()]),
            ("if2".into(), vec!["x".into(), "y".into(), "z".into()]),
        ]);
        let walk: Vec<_> = space.choices_delta_iter().collect();
        for start in 0..walk.len() {
            let mut iter = space.choices_delta_iter();
            let jumped = iter.nth(start).unwrap();
            assert_eq!((jumped.0, &jumped.2), (walk[start].0, &walk[start].2));
            // Right after a jump the iterator resumes single-axis stepping.
            if start + 1 < walk.len() {
                let next = iter.next().unwrap();
                assert_eq!(next, walk[start + 1]);
                assert!(next.1.is_some());
            } else {
                assert_eq!(iter.next(), None);
            }
        }
        assert_eq!(space.choices_delta_iter().nth(walk.len()), None);
    }

    #[test]
    fn gray_rank_strided_shards_partition_the_space() {
        let space = VariantSpace::new(vec![
            ("if1".into(), vec!["a".into(), "b".into(), "c".into()]),
            ("if2".into(), vec!["x".into(), "y".into()]),
        ]);
        let shards = 4usize;
        let mut indices: Vec<usize> = Vec::new();
        for shard in 0..shards {
            indices.extend(
                space
                    .choices_delta_iter()
                    .skip(shard)
                    .step_by(shards)
                    .map(|(index, _, _)| index),
            );
        }
        indices.sort_unstable();
        assert_eq!(indices, (0..space.count()).collect::<Vec<_>>());
    }

    #[test]
    fn contiguous_shard_ranks_tile_the_gray_walk() {
        let space = VariantSpace::new(vec![
            ("if1".into(), vec!["a".into(), "b".into(), "c".into()]),
            ("if2".into(), vec!["x".into(), "y".into()]),
        ]);
        for count in 1..=8 {
            let mut next = 0;
            for shard in 0..count {
                let ranks = space.shard_ranks(shard, count);
                assert_eq!(ranks.start, next, "shards of {count} are contiguous");
                next = ranks.end;
            }
            assert_eq!(next, space.count());
        }
        assert!(space.shard_ranks(4, 4).is_empty());
        assert!(space.shard_ranks(0, 0).is_empty());
        // Ranks of one shard step through the walk one axis at a time.
        let walk: Vec<_> = space.choices_delta_iter().collect();
        let ranks = space.shard_ranks(1, 2);
        assert!(walk[ranks.start + 1..ranks.end]
            .iter()
            .all(|(_, changed, _)| changed.is_some()));
    }

    #[test]
    fn choice_from_digits_into_reuses_the_buffer() {
        let space = space();
        let mut digits = Vec::new();
        let mut choice = VariantChoice::new();
        for index in 0..space.count() {
            assert!(space.digits_at(index, &mut digits));
            space.choice_from_digits_into(&digits, &mut choice);
            assert_eq!(Some(&choice), space.choice_at(index).as_ref());
        }
    }

    #[test]
    fn gray_walk_of_degenerate_spaces_is_empty() {
        assert_eq!(VariantSpace::default().choices_delta_iter().count(), 0);
        let collapsed = VariantSpace::new(vec![
            ("if1".into(), vec!["a".into()]),
            ("broken".into(), vec![]),
        ]);
        assert_eq!(collapsed.choices_delta_iter().count(), 0);
    }

    #[test]
    fn gray_walk_with_shadowed_duplicate_axes_reports_axis_order_changes() {
        // The shadowed first axis still counts in the mixed radix (its digit
        // changes are real steps), but only the last same-name axis shows in
        // the emitted choice — matching `choice_at` exactly.
        let space = VariantSpace::new(vec![
            ("dup".into(), vec!["old1".into(), "old2".into()]),
            ("dup".into(), vec!["new1".into(), "new2".into()]),
        ]);
        let walk: Vec<_> = space.choices_delta_iter().collect();
        assert_eq!(walk.len(), 4);
        for (index, _, choice) in &walk {
            assert_eq!(space.choice_at(*index).as_ref(), Some(choice));
        }
        // A step on the shadowed axis changes no visible selection.
        let shadowed_steps: Vec<_> = walk
            .iter()
            .filter(|(_, changed, _)| *changed == Some(0))
            .collect();
        assert!(!shadowed_steps.is_empty());
    }

    #[test]
    fn choice_accessors() {
        let choice = VariantChoice::new().with("if1", "a").with("if2", "x");
        assert_eq!(choice.len(), 2);
        assert!(!choice.is_empty());
        assert_eq!(choice.cluster_for("if3"), None);
        assert_eq!(choice.to_string(), "{if1 = a, if2 = x}");
        let pairs: Vec<_> = choice.iter().collect();
        assert_eq!(pairs, vec![("if1", "a"), ("if2", "x")]);
    }

    #[test]
    fn select_replaces_existing_interface_entry() {
        let mut choice = VariantChoice::new().with("if1", "a");
        choice.select("if1", "b");
        assert_eq!(choice.len(), 1);
        assert_eq!(choice.cluster_for("if1"), Some("b"));
    }

    #[test]
    fn choice_round_trips_through_json() {
        let choice = VariantChoice::new().with("if1", "a").with("if2", "x");
        let line = choice.to_json().to_line();
        assert_eq!(line, r#"{"if1":"a","if2":"x"}"#);
        let back = VariantChoice::from_json(&JsonValue::parse(&line).unwrap()).unwrap();
        assert_eq!(back, choice);
        assert!(VariantChoice::from_json(&JsonValue::Int(1)).is_err());
        assert!(VariantChoice::from_json(&JsonValue::parse(r#"{"if1":3}"#).unwrap()).is_err());
    }

    #[test]
    fn space_round_trips_and_rebuilds_the_decode_table() {
        // Axis names deliberately *not* in insertion order, so `sorted_axes`
        // differs from the identity permutation and a missing rebuild on
        // deserialize would decode combinations in the wrong name order.
        let space = VariantSpace::new(vec![
            ("zeta".into(), vec!["z1".into(), "z2".into()]),
            ("alpha".into(), vec!["a1".into(), "a2".into(), "a3".into()]),
        ]);
        let line = space.to_json().to_line();
        let back = VariantSpace::from_json(&JsonValue::parse(&line).unwrap()).unwrap();
        assert_eq!(back, space);
        assert_eq!(back.count(), space.count());
        for index in 0..space.count() {
            assert_eq!(back.choice_at(index), space.choice_at(index));
        }
        // Second hop is byte-stable (the representation is canonical).
        assert_eq!(back.to_json().to_line(), line);
        assert!(VariantSpace::from_json(&JsonValue::Int(0)).is_err());
    }

    #[test]
    fn space_with_shadowed_duplicate_axes_round_trips() {
        let space = VariantSpace::new(vec![
            ("dup".into(), vec!["old".into()]),
            ("dup".into(), vec!["new1".into(), "new2".into()]),
        ]);
        let back = VariantSpace::from_json(&JsonValue::parse(&space.to_json().to_line()).unwrap())
            .unwrap();
        assert_eq!(back, space);
        for index in 0..space.count() {
            assert_eq!(back.choice_at(index), space.choice_at(index));
        }
    }

    #[test]
    fn sym_accessors_match_string_accessors() {
        let choice = VariantChoice::new().with("if1", "a").with("if2", "x");
        let if1 = Sym::intern("if1");
        assert_eq!(choice.cluster_sym_for(if1).unwrap().as_str(), "a");
        assert_eq!(choice.cluster_sym_for(Sym::intern("ghost")), None);
        let pairs: Vec<(Sym, Sym)> = choice.iter_syms().collect();
        let rebuilt: VariantChoice = pairs.into_iter().collect();
        assert_eq!(rebuilt, choice);
    }
}
