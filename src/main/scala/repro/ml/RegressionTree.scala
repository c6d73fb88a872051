package repro.ml

/** Multi-output CART regression tree.
  *
  * This is the per-tree building block of [[RandomForest]], our from-scratch
  * substitute for scikit-learn's `RandomForestRegressor` (the paper trains
  * the parameter model `g: query characteristics -> {PPM scalars}` with it,
  * §3.4). Multi-output leaves predict the mean target *vector* and splits
  * minimise the summed per-output squared error, mirroring sklearn's
  * multi-target behaviour so a single model predicts {a, b, m} or {s, p}
  * jointly. The tree is grown at sklearn's regression defaults, which are
  * the only settings: every feature is a candidate at every split, depth is
  * unbounded, any node with two distinct feature vectors may split and a
  * leaf may hold one sample.
  */
object RegressionTree {

  /** A fitted tree node. Leaves carry the mean target vector of their
    * training samples; internal nodes route on `feature <= threshold`.
    */
  sealed trait Node {
    def predict(x: Array[Double]): Array[Double] = this match {
      case Leaf(v)                   => v
      case Split(f, thr, left, right) => if (x(f) <= thr) left.predict(x) else right.predict(x)
    }
    def nodeCount: Int = this match {
      case _: Leaf           => 1
      case Split(_, _, l, r) => 1 + l.nodeCount + r.nodeCount
    }
  }
  final case class Leaf(value: Array[Double]) extends Node
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  /** Training rows in the layout split search reads: one array per
    * feature, its dense rank keys (see [[denseRanks]]) and the targets
    * flattened row by row. Rows whose rank keys agree on every feature form
    * a group, which no split can separate: under `java.lang.Double.compare`,
    * so `-0.0` and `0.0` fall in different groups and all NaNs in one. Group
    * ids follow the rank vectors' lexicographic order. A forest builds this
    * once for all its trees.
    */
  private[ml] final class Rows(x: IndexedSeq[Array[Double]], y: IndexedSeq[Array[Double]]) {
    require(x.nonEmpty && x.length == y.length, s"bad input sizes: ${x.length} vs ${y.length}")
    val size: Int      = x.length
    val nFeatures: Int = x.head.length
    val nOutputs: Int  = y.head.length
    require(y.forall(_.length == nOutputs), "ragged target vectors")

    val columns: Array[Array[Double]] = Array.tabulate(nFeatures)(f => x.iterator.map(_(f)).toArray)
    val ranks: Array[Array[Int]]      = columns.map(denseRanks)
    val targets: Array[Double]        = y.iterator.flatMap(_.iterator).toArray

    /** Each row's group id. Feature by feature, a row's id becomes the
      * dense rank of its id so far and its rank key, packed in a long.
      */
    val groupOf: Array[Int] = new Array[Int](size)
    val nGroups: Int = {
      val keys  = new Array[Long](size)
      var count = 1
      var f     = 0
      while (f < nFeatures) {
        val rank = ranks(f)
        var i = 0
        while (i < size) { keys(i) = groupOf(i).toLong << 32 | rank(i); i += 1 }
        count = denseRanks(keys, groupOf)
        f += 1
      }
      count
    }
    // A row of each group; its rows differ in value only by NaN payloads.
    private val member = new Array[Int](nGroups)
    for (i <- 0 until size) member(groupOf(i)) = i

    /** Per feature, each group's rank key and value. */
    val groupRanks: Array[Array[Int]]     = ranks.map(r => member.map(r))
    val groupValues: Array[Array[Double]] = columns.map(c => member.map(c))
    /** Per feature, the group ids in rank order, ties by id. */
    val groupsByRank: Array[Array[Int]] = groupRanks.map { r =>
      val keys = new Array[Long](nGroups)
      var g = 0
      while (g < nGroups) { keys(g) = r(g).toLong << 32 | g; g += 1 }
      java.util.Arrays.sort(keys)
      val byRank = new Array[Int](nGroups)
      g = 0
      while (g < nGroups) { byRank(g) = keys(g).toInt; g += 1 }
      byRank
    }

    /** The features split search reads: every feature but one that is an
      * earlier feature's twin on every set of groups. Two features are such
      * twins when each group has the same rank key in both, and a value of
      * the same kind in both: NaN, -0.0, 0.0 or other. For two groups of
      * rising rank key, `v0 < v1` fails only when v1 is NaN or the pair is
      * (-0.0, 0.0), so it holds in both features or in neither. Then the two
      * order any node's groups alike, with rank changes and `v0 < v1` at the
      * same places, and the later one's cuts would never be listed (see
      * [[grow]], Twins).
      */
    val searched: Array[Int] = {
      def kind(v: Double): Int =
        if (v.isNaN) 1 else if (v != 0.0) 0 else if (java.lang.Double.doubleToRawLongBits(v) < 0) 2 else 3
      def twins(f: Int, h: Int): Boolean = {
        var g = 0
        while (g < nGroups && groupRanks(f)(g) == groupRanks(h)(g) && kind(groupValues(f)(g)) == kind(groupValues(h)(g))) g += 1
        g == nGroups
      }
      val out = new Array[Int](nFeatures)
      var k   = 0
      var f   = 0
      while (f < nFeatures) {
        var e = 0
        while (e < k && !twins(out(e), f)) e += 1
        if (e == k) { out(k) = f; k += 1 }
        f += 1
      }
      java.util.Arrays.copyOf(out, k)
    }
  }

  /** Fit a tree on the rows `sample` of `data`, in that order; a row may
    * repeat, as in a bootstrap sample. The tree is the one grown on
    * `Rows(sample.map(x), sample.map(y))` with its rows in order.
    *
    * The tree is the one the exhaustive CART search builds, bit for bit.
    * That search orders a node's rows by each feature's rank keys
    * (a stable sort, ties in the node's row order) and gives every cut
    * between two rows with `v0 < v1` the gain `parentSse - sseLeft -
    * sseRight`, each side's impurity summed in that order around the side's
    * mean; a cut replaces the best split when its gain beats the best by
    * more than 1e-15. A node whose `parentSse` is at most 1e-12 is a leaf.
    * The search here reaches the same split with less work:
    *  - Groups. A node holds whole groups of [[Rows]], never part of one, so
    *    it keeps its groups as one range `[lo, hi)` of per-feature arrays of
    *    the sample's groups in rank order, the same range in every feature's
    *    array. A split stably partitions the range of each feature that
    *    varies on the node. A feature varies when the first and last group
    *    of its range differ in rank; children inherit the subset. A node
    *    with no varying feature holds one group and becomes a leaf, as a
    *    node of one row does: no cut separates it.
    *  - Estimates. Each cut of a varying feature gets the estimate
    *    {{{
    *    G' = Σ_o L_o²/c + Σ_o R_o²/r − Σ_o P_o²/m,   R_o = P_o − L_o
    *    }}}
    *    in O(K) from running sums over the groups, with `L_o` the sum of
    *    output `o` over the `c` rows left of the cut, `R_o` over the
    *    `r = m − c` rows right of it and `P_o` over the node's `m` rows. In
    *    real arithmetic `G'` is the gain. The sums, `P_o` and the node's
    *    Σy² included, are taken group by group from the sample's per-group
    *    sums, in an order unlike the exhaustive search's, but the bounds
    *    below only use that a rounded sum of n values is within
    *    (n − 1)·u·Σ|x| of the real one, which holds for any order and
    *    grouping of the additions.
    *  - Twins. A feature that orders the node's groups as an earlier
    *    feature does (the same groups in the same order, with rank changes
    *    and `v0 < v1` at the same places) has the same cuts, and sorts the
    *    node's rows into the same order, so each of its exact gains repeats
    *    an earlier one bit for bit. Once the exhaustive search has weighed a
    *    gain g, the rounded `best + 1e-15` stays at least g, so the repeat
    *    cannot replace the best: leaving the twin's cuts out of the list
    *    does not change the split the search picks. A feature that is a
    *    twin on every node is left out from the start (see
    *    [[Rows.searched]]).
    *  - Exact scan. The cuts are listed in the exhaustive search's order:
    *    features ascending, cuts ascending. In that search the best
    *    gain before a cut is 0 or an earlier cut's exact gain, which is at
    *    most that cut's `G' + slack`. So if a cut d has `G' − slack` above 0
    *    and above every earlier cut's `G' + slack` by more than 1e-15 (a NaN
    *    estimate bounds nothing), its exact gain beats whatever was best
    *    before it and replaces it: the search's state after d does not
    *    depend on the cuts before d. The scan starts at the last such d (see
    *    [[scanStart]]). After d, a cut gets the exact gain only when
    *    `G' + slack` could beat the best gain so far. The exact gain sorts
    *    the node's rows by the cut's feature, once per feature, and sums in
    *    that order, as the exhaustive search does. The winner's row order is
    *    derived again to give the children's rows.
    *  - Scan start without its exact gain (see [[bestCut]]). d's exact gain
    *    is a double at least `G'_d − slack` in real arithmetic, and rounding
    *    is monotone, so it is at least the rounded `G'_d − slack`. Until a
    *    later cut's `G' + slack` tops that lower bound by more than 1e-15,
    *    each cut the scan meets would be skipped against d's exact gain too.
    *    The first cut that tops it gets d's exact gain computed, and from
    *    there the scan is the one above. So the scan skips exactly the cuts
    *    it skipped with d's gain in hand, and when no cut tops the bound, d
    *    wins without an exact gain.
    *  - Node impurity. A node's `parentSse` is needed only by its leaf test
    *    and its exact gains. The children of a winner whose exact gain was
    *    computed already have theirs: a child's rows are the winner's row
    *    order on its side of the cut, in that order, so its `parentSse` is
    *    that side's `sseLeft` or `sseRight` bit for bit. Any other node
    *    settles the leaf test with the estimate `E' = Σy² − Σ_o P_o²/m`:
    *    it is a leaf if `E' + slack <= 1e-12` and not a leaf if
    *    `E' − slack > 1e-12`. Only otherwise (a NaN bound included) does it
    *    compute `parentSse` over its rows for the test; else it does so
    *    once an exact gain needs it.
    *
    * `slack` bounds |gain − G'| for every cut of a node, the computed exact
    * gain against the computed estimate, and |parentSse − E'|. With
    * u = 2^-53^, S = Σ y² over the node's rows and outputs, A = Σ |y| of one
    * output over a set of rows, G the cut's gain in real arithmetic, and the
    * standard bounds for rounded sums and products (Higham, ''Accuracy and
    * Stability of Numerical Algorithms'', ch. 3–4), to first order in u:
    *  - Exact gain. A side of n rows has a computed mean within u·A per
    *    output, which moves its squared error by at most (n·u)²·S. Its
    *    squared error is a sum of nK rounded non-negative squares, within
    *    (nK + 2)·u times its value. With SSE,,L,, + SSE,,R,, ≤ SSE,,P,, ≤ S and two rounded
    *    subtractions, |gain − G| ≤ (2mK + 7)·u·S.
    *  - Left and parent terms. A rounded sum s of n values is within
    *    (n − 1)·u·A, so s²/n, rounded twice, is within
    *    2n·u·A²/n ≤ 2n·u·Σy² (Cauchy–Schwarz, A² ≤ n·Σy²). Over all outputs
    *    that is 2c·u·S on the left and (2m + K)·u·S for the parent's terms
    *    and their sum.
    *  - Right term. `P_o − L_o` cancels: both sums are within (m − 1)·u·A,,P,,,
    *    so R_o is within (2m − 1)·u·A,,P,, however small it is. That moves
    *    R_o²/r by 2(2m − 1)·u·A,,P,,·A,,R,,/r, and over all outputs
    *    Σ A,,P,,·A,,R,, ≤ √(m·S)·√(r·S) (Cauchy–Schwarz twice), so by at
    *    most 2(2m − 1)·√(m/r)·u·S ≤ 4m√m·u·S; rounding adds 2u·S.
    *  - Summing the terms (at most K + 1 additions deep) and the subtraction
    *    add (K + 2)·u·S, so |G' − G| ≤ (4m√m + 4m + 2K + 2)·u·S.
    *  - Leaf-test margin. `parentSse` is the node's squared error computed
    *    as one side's is above, so within (mK + 2)·u·S of the real one. Σy²
    *    is a sum of mK rounded squares, within mK·u·S; the parent's terms
    *    are within (2m + K)·u·S and the subtraction adds u·S. So
    *    |parentSse − E'| ≤ (2mK + 2m + K + 3)·u·S, less than the slack. If
    *    the rounded `E' − slack` is above 1e-12, so is `E' − slack` in real
    *    arithmetic (rounding is monotone) and so is `parentSse`. If the
    *    rounded `E' + slack` is at most 1e-12, then `E' + slack` and
    *    `parentSse` lie below the next double above 1e-12, and `parentSse`,
    *    a double, is at most 1e-12. The margin is the slack itself.
    *  - `slack = (mK + 2m√m + 2m + 2K + 8)·2^-51^·Ŝ`, with Ŝ the rounded S,
    *    is (4mK + 8m√m + 8m + 8K + 32)·u·Ŝ. Its surplus over the bounds, at
    *    least (2mK + 4m√m + 4m + 6K + 22)·u·S over the two of a cut and
    *    more over the margin's, covers the second-order terms, the rounding
    *    of Ŝ and of the slack, and the rounding of `G' ± slack` and of
    *    `+ 1e-15` in the tests.
    *  - No overflow or underflow breaks this: the slack is finite only while
    *    2^-900^ ≤ Ŝ and 8m·Ŝ < `Double.MaxValue`. Then no sum or square of
    *    either computation overflows (s² ≤ A² ≤ m·S), and each rounded
    *    product or quotient that underflows adds at most 2^-1075^, far
    *    below u·Ŝ.
    *
    * Otherwise (a NaN or infinite target, or targets near either end of the
    * double range) the slack is +∞: no cut qualifies as d, every cut gets
    * the exact gain and the leaf test reads `parentSse`. A cut is skipped
    * only when `G' + slack <= best + 1e-15`, so a cut whose estimate is NaN
    * gets the exact gain too.
    */
  private[ml] def grow(data: Rows, sample: Array[Int]): Node = {
    val n         = sample.length
    val nFeatures = data.nFeatures
    val nOutputs  = data.nOutputs
    val targets   = data.targets
    val ranks     = data.ranks

    // The sample's groups: the rows each holds, their per-output target
    // sums, their Σy² over all outputs, and per searched feature the groups
    // in rank order.
    val groupRows    = new Array[Int](data.nGroups)
    val groupSums    = new Array[Double](data.nGroups * nOutputs)
    val groupSquares = new Array[Double](data.nGroups)
    val nGroups = {
      var i = 0
      while (i < n) {
        val row = sample(i)
        val g   = data.groupOf(row)
        groupRows(g) += 1
        var o = 0
        while (o < nOutputs) {
          val v = targets(row * nOutputs + o)
          groupSums(g * nOutputs + o) += v
          groupSquares(g) += v * v
          o += 1
        }
        i += 1
      }
      var count = 0
      var g     = 0
      while (g < data.nGroups) { if (groupRows(g) > 0) count += 1; g += 1 }
      count
    }
    val segments = {
      val out = new Array[Array[Int]](nFeatures)
      var c   = 0
      while (c < data.searched.length) {
        val f      = data.searched(c)
        val byRank = data.groupsByRank(f)
        val seg    = new Array[Int](nGroups)
        var k = 0
        var j = 0
        while (j < byRank.length) {
          val g = byRank(j)
          if (groupRows(g) > 0) { seg(k) = g; k += 1 }
          j += 1
        }
        out(f) = seg
        c += 1
      }
      out
    }

    // Scratch reused by every node: its rows ordered by a feature,
    // counting-sort buckets, the targets of its rows in order, per-output
    // sums, the side of each group, a partition buffer and the varying
    // features that are no earlier feature's twin.
    val order    = new Array[Int](n)
    val buckets  = new Array[Int](data.size)
    val ordered  = new Array[Double](n * nOutputs)
    val sumLeft  = new Array[Double](nOutputs)
    val nodeSum  = new Array[Double](nOutputs)
    val mean     = new Array[Double](nOutputs)
    val goesLeft = new Array[Boolean](data.nGroups)
    val spill    = new Array[Int](nGroups)
    val kept     = new Array[Int](nFeatures)

    // The current node's cuts in scan order: feature, index of the first
    // group right of the cut, rows left of it, G', and each side's squared
    // error, `Unknown` until the cut's exact gain computes it.
    val maxCuts     = nFeatures * math.max(nGroups - 1, 0)
    val cutFeature  = new Array[Int](maxCuts)
    val cutGroup    = new Array[Int](maxCuts)
    val cutRows     = new Array[Int](maxCuts)
    val cutEstimate = new Array[Double](maxCuts)
    val cutLeftSse  = new Array[Double](maxCuts)
    val cutRightSse = new Array[Double](maxCuts)
    var nCuts       = 0
    // The feature `order` and `ordered` hold the current node's rows by.
    var sortedBy    = -1

    def gather(rows: Array[Int], m: Int): Unit = {
      var i = 0
      var p = 0
      while (i < m) {
        var q = rows(i) * nOutputs
        val end = q + nOutputs
        while (q < end) { ordered(p) = targets(q); p += 1; q += 1 }
        i += 1
      }
    }

    /** Mean of rows `lo until hi` of `ordered` into `mean`. */
    def meanOf(lo: Int, hi: Int): Unit = {
      var o = 0
      while (o < nOutputs) { mean(o) = 0.0; o += 1 }
      var p = lo * nOutputs
      while (p < hi * nOutputs) {
        var o = 0
        while (o < nOutputs) { mean(o) += ordered(p + o); o += 1 }
        p += nOutputs
      }
      o = 0
      while (o < nOutputs) { mean(o) /= (hi - lo); o += 1 }
    }

    // Summed-across-outputs squared error of rows `lo until hi` of `ordered`
    // around `mean` — the CART impurity once `mean` is theirs.
    def deviation(lo: Int, hi: Int): Double = {
      var s = 0.0
      var p = lo * nOutputs
      while (p < hi * nOutputs) {
        var o = 0
        while (o < nOutputs) { val d = ordered(p + o) - mean(o); s += d * d; o += 1 }
        p += nOutputs
      }
      s
    }

    def sse(lo: Int, hi: Int): Double = { meanOf(lo, hi); deviation(lo, hi) }

    /** The node's `parentSse`: the squared error of its rows `idx` in that order. */
    def rowSse(idx: Array[Int]): Double = {
      gather(idx, idx.length)
      sortedBy = -1
      sse(0, idx.length)
    }

    def leaf(idx: Array[Int]): Leaf = {
      gather(idx, idx.length)
      meanOf(0, idx.length)
      Leaf(mean.clone())
    }

    /** Lists the cuts of feature `f` over the node's groups `lo until hi`
      * with their estimates G'. `nodeSum` holds the node's P_o and
      * `parentTerm` its Σ_o P_o²/m.
      */
    def estimate(f: Int, lo: Int, hi: Int, m: Int, parentTerm: Double): Unit = {
      val seg   = segments(f)
      val value = data.groupValues(f)
      var rows  = 0
      var o     = 0
      while (o < nOutputs) { sumLeft(o) = 0.0; o += 1 }
      var j = lo
      while (j < hi - 1) {
        val g = seg(j)
        rows += groupRows(g)
        o = 0
        while (o < nOutputs) { sumLeft(o) += groupSums(g * nOutputs + o); o += 1 }
        // Candidate thresholds: midpoints between consecutive distinct values.
        if (value(g) < value(seg(j + 1))) {
          var e = 0.0
          o = 0
          while (o < nOutputs) {
            val l = sumLeft(o); val r = nodeSum(o) - l
            e += l * l / rows + r * r / (m - rows)
            o += 1
          }
          cutFeature(nCuts) = f; cutGroup(nCuts) = j + 1; cutRows(nCuts) = rows; cutEstimate(nCuts) = e - parentTerm
          cutLeftSse(nCuts) = Unknown; cutRightSse(nCuts) = Unknown
          nCuts += 1
        }
        j += 1
      }
    }

    /** Writes the node's rows `idx` ordered by feature `f`, ties in `idx`
      * order, to `order`: a stable counting sort on the rank keys, each
      * key's bucket placed from the node's groups `lo until hi` in `f`'s
      * rank order.
      */
    def sortRows(idx: Array[Int], f: Int, lo: Int, hi: Int): Unit = {
      val seg  = segments(f)
      val rank = data.groupRanks(f)
      val base = rank(seg(lo))
      var pos  = 0
      var j    = lo
      while (j < hi) {
        val g = seg(j)
        if (j == lo || rank(g) != rank(seg(j - 1))) buckets(rank(g) - base) = pos
        pos += groupRows(g)
        j += 1
      }
      val key = ranks(f)
      var i = 0
      while (i < idx.length) { val b = key(idx(i)) - base; order(buckets(b)) = idx(i); buckets(b) += 1; i += 1 }
      sortedBy = f
    }

    /** The exact gain of cut `k` of the node with rows `idx` and groups
      * `lo until hi`; keeps each side's squared error for the children.
      */
    def exactGain(idx: Array[Int], lo: Int, hi: Int, k: Int, parentSse: Double): Double = {
      if (cutFeature(k) != sortedBy) { sortRows(idx, cutFeature(k), lo, hi); gather(order, idx.length) }
      val c = cutRows(k)
      cutLeftSse(k) = sse(0, c)
      cutRightSse(k) = sse(c, idx.length)
      parentSse - cutLeftSse(k) - cutRightSse(k)
    }

    /** Whether features `f` and `h` are twins on the groups `lo until hi`:
      * the same groups in the same order, with rank changes and `v0 < v1`
      * at the same places.
      */
    def sameOrder(f: Int, h: Int, lo: Int, hi: Int): Boolean = {
      val a  = segments(f);          val b  = segments(h)
      val ra = data.groupRanks(f);  val rb = data.groupRanks(h)
      val va = data.groupValues(f); val vb = data.groupValues(h)
      if (a(lo) != b(lo)) return false
      var j = lo + 1
      while (j < hi) {
        val p = a(j - 1); val g = a(j)
        if (g != b(j) || (ra(p) != ra(g)) != (rb(p) != rb(g)) || (va(p) < va(g)) != (vb(p) < vb(g))) return false
        j += 1
      }
      true
    }

    /** Stably moves the groups of `seg(lo until hi)` that go left to its front. */
    def partition(seg: Array[Int], lo: Int, hi: Int): Unit = {
      var w = lo
      var k = 0
      var j = lo
      while (j < hi) {
        val g = seg(j)
        if (goesLeft(g)) { seg(w) = g; w += 1 } else { spill(k) = g; k += 1 }
        j += 1
      }
      System.arraycopy(spill, 0, seg, w, k)
    }

    /** The node with rows `idx` and groups `lo until hi`, whose varying
      * features are among `inherited`; `knownSse` is its `parentSse`, or
      * `Unknown`.
      */
    def build(idx: Array[Int], lo: Int, hi: Int, inherited: Array[Int], knownSse: Double): Node = {
      val m = idx.length
      val varying = {
        val out = new Array[Int](inherited.length)
        var k = 0
        var c = 0
        while (c < inherited.length) {
          val f = inherited(c); val seg = segments(f); val rank = data.groupRanks(f)
          if (rank(seg(lo)) != rank(seg(hi - 1))) { out(k) = f; k += 1 }
          c += 1
        }
        java.util.Arrays.copyOf(out, k)
      }
      // One group: no cut exists.
      if (varying.isEmpty) return leaf(idx)

      // The node's Σy², P_o and Σ_o P_o²/m from its groups' sums (a varying
      // feature's range holds the node's groups), and the slack they give
      // (see grow).
      val groups  = segments(varying(0))
      var squares = 0.0
      var o = 0
      while (o < nOutputs) { nodeSum(o) = 0.0; o += 1 }
      var j = lo
      while (j < hi) {
        val g = groups(j)
        squares += groupSquares(g)
        o = 0
        while (o < nOutputs) { nodeSum(o) += groupSums(g * nOutputs + o); o += 1 }
        j += 1
      }
      var parentTerm = 0.0
      o = 0
      while (o < nOutputs) { parentTerm += nodeSum(o) * nodeSum(o) / m; o += 1 }
      val slack =
        if (squares >= TwoPowMinus900 && squares * (8.0 * m) < Double.MaxValue)
          (m * nOutputs + 2 * m * math.sqrt(m) + 2 * m + 2 * nOutputs + 8) * TwoPowMinus51 * squares
        else Double.PositiveInfinity

      // The leaf test, settled from E' when the slack keeps it clear of
      // 1e-12 (see grow).
      var parentSse = knownSse
      if (parentSse == Unknown) {
        val e = squares - parentTerm
        if (e + slack <= 1e-12) return leaf(idx)
        if (!(e - slack > 1e-12)) parentSse = rowSse(idx)
      }
      if (parentSse != Unknown && parentSse <= 1e-12) return leaf(idx)

      // Cuts of the varying features, skipping a twin of an earlier one.
      nCuts = 0
      var nKept = 0
      var c = 0
      while (c < varying.length) {
        val f = varying(c)
        var e = 0
        while (e < nKept && !sameOrder(kept(e), f, lo, hi)) e += 1
        if (e == nKept) { kept(nKept) = f; nKept += 1; estimate(f, lo, hi, m, parentTerm) }
        c += 1
      }

      sortedBy = -1
      val best = bestCut(cutEstimate, nCuts, slack, k => {
        if (parentSse == Unknown) parentSse = rowSse(idx)
        exactGain(idx, lo, hi, k, parentSse)
      })
      if (best < 0) return leaf(idx)

      val f        = cutFeature(best)
      val seg      = segments(f)
      val mid      = cutGroup(best)
      val leftSse  = cutLeftSse(best)
      val rightSse = cutRightSse(best)
      if (f != sortedBy) sortRows(idx, f, lo, hi)
      val left  = java.util.Arrays.copyOfRange(order, 0, cutRows(best))
      val right = java.util.Arrays.copyOfRange(order, cutRows(best), m)
      j = lo
      while (j < hi) { goesLeft(seg(j)) = j < mid; j += 1 }
      c = 0
      while (c < varying.length) { if (varying(c) != f) partition(segments(varying(c)), lo, hi); c += 1 }
      val value = data.groupValues(f)
      Split(f, (value(seg(mid - 1)) + value(seg(mid))) / 2.0,
        build(left, lo, mid, varying, leftSse), build(right, mid, hi, varying, rightSse))
    }

    build(sample, 0, nGroups, data.searched, Unknown)
  }

  /** A `parentSse` not computed yet; a computed one is never negative. */
  private val Unknown = -1.0

  /** Where the exact scan of a node's cuts may start, given their estimates
    * G' in scan order and the node's slack: the last cut whose `G' − slack`
    * beats 0 and every earlier cut's `G' + slack` by more than 1e-15, or -1
    * if none does. A NaN estimate bounds nothing, so no cut after it
    * qualifies. See [[grow]] for why the scan may start there.
    */
  private[ml] def scanStart(estimates: Array[Double], nCuts: Int, slack: Double): Int = {
    var upper = 0.0
    var d     = -1
    var k     = 0
    while (k < nCuts) {
      val e = estimates(k)
      if (e - slack > upper + 1e-15) d = k
      val u = e + slack
      if (u.isNaN) upper = Double.PositiveInfinity
      else if (u > upper) upper = u
      k += 1
    }
    d
  }

  /** The cut the exact scan picks, given the node's estimates G' in scan
    * order, its slack and `gain(k)`, the exact gain of cut k; -1 if no cut
    * wins. The scan starts at [[scanStart]]'s d. It calls `gain(d)` only
    * once a later cut's `G' + slack` tops `G'_d − slack` by more than
    * 1e-15, and a later cut's gain only when `G' + slack` could beat the
    * best exact gain by more than that. So `gain` has been called for the
    * winner, unless no call was made at all. See [[grow]].
    */
  private[ml] def bestCut(estimates: Array[Double], nCuts: Int, slack: Double, gain: Int => Double): Int = {
    var best     = scanStart(estimates, nCuts, slack)
    // The best exact gain so far, or d's lower bound until `exact`.
    var bestGain = if (best >= 0) estimates(best) - slack else 0.0
    var exact    = best < 0
    var k        = best + 1
    while (k < nCuts) {
      if (!(estimates(k) + slack <= bestGain + 1e-15)) {
        if (!exact) { bestGain = gain(best); exact = true }
        if (!(estimates(k) + slack <= bestGain + 1e-15)) {
          val g = gain(k)
          if (g > bestGain + 1e-15) { bestGain = g; best = k }
        }
      }
      k += 1
    }
    best
  }

  private val TwoPowMinus51  = java.lang.Math.scalb(1.0, -51)
  private val TwoPowMinus900 = java.lang.Math.scalb(1.0, -900)

  /** Dense rank of each value of `col` under `java.lang.Double.compare`:
    * equal values share a key and `-0.0` ranks below `0.0`.
    */
  private[ml] def denseRanks(col: Array[Double]): Array[Int] = {
    // `Double.compare`'s order as a long order: the bits of `doubleToLongBits`
    // (one NaN), with the magnitude bits of negative values flipped.
    val keys = new Array[Long](col.length)
    var i = 0
    while (i < col.length) {
      val b = java.lang.Double.doubleToLongBits(col(i))
      keys(i) = b ^ ((b >> 63) & Long.MaxValue)
      i += 1
    }
    val out = new Array[Int](col.length)
    denseRanks(keys, out)
    out
  }

  /** Writes the dense rank of each of `keys` to `out`: equal keys share a
    * rank, and ranks follow the keys' order. Returns the number of distinct
    * keys.
    */
  private def denseRanks(keys: Array[Long], out: Array[Int]): Int = {
    val distinct = keys.clone()
    java.util.Arrays.sort(distinct)
    var k = 0
    var i = 0
    while (i < distinct.length) {
      if (k == 0 || distinct(k - 1) != distinct(i)) { distinct(k) = distinct(i); k += 1 }
      i += 1
    }
    i = 0
    while (i < keys.length) { out(i) = java.util.Arrays.binarySearch(distinct, 0, k, keys(i)); i += 1 }
    k
  }
}
