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

    private def compareKeys(a: Int, b: Int): Int = {
      var f = 0
      while (f < nFeatures) {
        val c = Integer.compare(ranks(f)(a), ranks(f)(b))
        if (c != 0) return c
        f += 1
      }
      0
    }

    /** Each row's group id. */
    val groupOf: Array[Int] = new Array[Int](size)
    val nGroups: Int = {
      val sorted = Array.range(0, size).sortWith(compareKeys(_, _) < 0)
      var g = 0
      for (i <- sorted.indices) {
        if (i > 0 && compareKeys(sorted(i - 1), sorted(i)) != 0) g += 1
        groupOf(sorted(i)) = g
      }
      g + 1
    }
    // A row of each group; its rows differ in value only by NaN payloads.
    private val member = new Array[Int](nGroups)
    for (i <- 0 until size) member(groupOf(i)) = i

    /** Per feature, each group's rank key and value. */
    val groupRanks: Array[Array[Int]]     = ranks.map(r => member.map(r))
    val groupValues: Array[Array[Double]] = columns.map(c => member.map(c))
    /** Per feature, the group ids in rank order, ties by id. */
    val groupsByRank: Array[Array[Int]] = groupRanks.map(r => Array.range(0, nGroups).sortBy(r))
  }

  /** Fit a tree on `x(i) -> y(i)` (bootstrap resampling is the forest's job). */
  def fit(x: IndexedSeq[Array[Double]], y: IndexedSeq[Array[Double]]): Node =
    grow(new Rows(x, y), Array.range(0, x.length))

  /** Fit a tree on the rows `sample` of `data`, in that order; a row may
    * repeat, as in a bootstrap sample. The tree is the one [[fit]] gives on
    * `sample.map(x)` and `sample.map(y)`.
    *
    * The tree is the one the exhaustive CART search builds, bit for bit.
    * That search orders a node's rows by each feature's rank keys
    * (a stable sort, ties in the node's row order) and gives every cut
    * between two rows with `v0 < v1` the gain `parentSse - sseLeft -
    * sseRight`, each side's impurity summed in that order around the side's
    * mean; a cut replaces the best split when its gain beats the best by
    * more than 1e-15. The search here reaches the same split with less work:
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
    *    real arithmetic `G'` is the gain. The sums are taken group by group,
    *    in an order unlike the exhaustive search's, but the bound below only
    *    uses that a rounded sum of n values is within (n − 1)·u·Σ|x| of the
    *    real one, which holds for any order and grouping of the additions.
    *  - Twins. A feature that orders the node's groups as an earlier
    *    feature does (the same groups in the same order, with rank changes
    *    and `v0 < v1` at the same places) has the same cuts, and sorts the
    *    node's rows into the same order, so each of its exact gains repeats
    *    an earlier one bit for bit. Once the exhaustive search has weighed a
    *    gain g, the rounded `best + 1e-15` stays at least g, so the repeat
    *    cannot replace the best: leaving the twin's cuts out of the list
    *    does not change the split the search picks.
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
    *
    * `slack` bounds |gain − G'| for every cut of a node, the computed exact
    * gain against the computed estimate. With u = 2^-53^,
    * S = Σ y² over the node's rows and outputs, A = Σ |y| of one output
    * over a set of rows, G the cut's gain in real arithmetic, and the
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
    *  - `slack = (mK + 2m√m + 2m + 2K + 8)·2^-51^·Ŝ`, with Ŝ the rounded S,
    *    is (4mK + 8m√m + 8m + 8K + 32)·u·Ŝ. Its surplus over the two
    *    bounds, at least (2mK + 4m√m + 4m + 6K + 22)·u·S, covers the
    *    second-order terms, the rounding of Ŝ and of the slack, and the
    *    rounding of `G' ± slack` and of `+ 1e-15` in the tests.
    *  - No overflow or underflow breaks this: the slack is finite only while
    *    2^-900^ ≤ Ŝ and 8m·Ŝ < `Double.MaxValue`. Then no sum or square of
    *    either computation overflows (s² ≤ A² ≤ m·S), and each rounded
    *    product or quotient that underflows adds at most 2^-1075^, far
    *    below u·Ŝ.
    *
    * Otherwise (a NaN or infinite target, or targets near either end of the
    * double range) the slack is +∞: no cut qualifies as d and every cut gets
    * the exact gain. A cut is skipped only when `G' + slack <= best + 1e-15`,
    * so a cut whose estimate is NaN gets the exact gain too.
    */
  private[ml] def grow(data: Rows, sample: Array[Int]): Node = {
    val n         = sample.length
    val nFeatures = data.nFeatures
    val nOutputs  = data.nOutputs
    val targets   = data.targets
    val ranks     = data.ranks

    // The sample's groups: the rows each holds, their per-output target
    // sums, and per feature the groups in rank order.
    val groupRows = new Array[Int](data.nGroups)
    val groupSums = new Array[Double](data.nGroups * nOutputs)
    for (row <- sample) {
      val g = data.groupOf(row)
      groupRows(g) += 1
      var o = 0
      while (o < nOutputs) { groupSums(g * nOutputs + o) += targets(row * nOutputs + o); o += 1 }
    }
    val nGroups  = groupRows.count(_ > 0)
    val segments = data.groupsByRank.map { byRank =>
      val seg = new Array[Int](nGroups)
      var k = 0
      for (g <- byRank) if (groupRows(g) > 0) { seg(k) = g; k += 1 }
      seg
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
    // group right of the cut, rows left of it, and G'.
    val maxCuts     = nFeatures * math.max(nGroups - 1, 0)
    val cutFeature  = new Array[Int](maxCuts)
    val cutGroup    = new Array[Int](maxCuts)
    val cutRows     = new Array[Int](maxCuts)
    val cutEstimate = new Array[Double](maxCuts)
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

    /** The exact gain of cut `k` of the node with rows `idx` and groups `lo until hi`. */
    def exactGain(idx: Array[Int], lo: Int, hi: Int, k: Int, parentSse: Double): Double = {
      if (cutFeature(k) != sortedBy) { sortRows(idx, cutFeature(k), lo, hi); gather(order, idx.length) }
      val c       = cutRows(k)
      val sseLeft = sse(0, c)
      parentSse - sseLeft - sse(c, idx.length)
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

    def build(idx: Array[Int], lo: Int, hi: Int, inherited: Array[Int]): Node = {
      val m = idx.length
      val varying = {
        val out = new Array[Int](inherited.length)
        var k = 0
        for (f <- inherited) {
          val seg = segments(f); val rank = data.groupRanks(f)
          if (rank(seg(lo)) != rank(seg(hi - 1))) { out(k) = f; k += 1 }
        }
        java.util.Arrays.copyOf(out, k)
      }
      // One group: no cut exists.
      if (varying.isEmpty) return leaf(idx)
      gather(idx, m)
      val parentSse = sse(0, m)
      if (parentSse <= 1e-12) return leaf(idx)

      // The node's Σy², P_o and Σ_o P_o²/m, and the slack they give (see grow).
      var squares    = 0.0
      var parentTerm = 0.0
      var o = 0
      while (o < nOutputs) {
        var s = 0.0
        var p = o
        while (p < m * nOutputs) { val v = ordered(p); s += v; squares += v * v; p += nOutputs }
        nodeSum(o) = s
        parentTerm += s * s / m
        o += 1
      }
      val slack =
        if (squares >= TwoPowMinus900 && squares * (8.0 * m) < Double.MaxValue)
          (m * nOutputs + 2 * m * math.sqrt(m) + 2 * m + 2 * nOutputs + 8) * TwoPowMinus51 * squares
        else Double.PositiveInfinity

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
      var best     = scanStart(cutEstimate, nCuts, slack)
      var bestGain = if (best >= 0) exactGain(idx, lo, hi, best, parentSse) else 0.0
      var k = best + 1
      while (k < nCuts) {
        if (!(cutEstimate(k) + slack <= bestGain + 1e-15)) {
          val gain = exactGain(idx, lo, hi, k, parentSse)
          if (gain > bestGain + 1e-15) { bestGain = gain; best = k }
        }
        k += 1
      }
      if (best < 0) return leaf(idx)

      val f   = cutFeature(best)
      val seg = segments(f)
      val mid = cutGroup(best)
      if (f != sortedBy) sortRows(idx, f, lo, hi)
      val left  = java.util.Arrays.copyOfRange(order, 0, cutRows(best))
      val right = java.util.Arrays.copyOfRange(order, cutRows(best), m)
      var j = lo
      while (j < hi) { goesLeft(seg(j)) = j < mid; j += 1 }
      c = 0
      while (c < varying.length) { if (varying(c) != f) partition(segments(varying(c)), lo, hi); c += 1 }
      val value = data.groupValues(f)
      Split(f, (value(seg(mid - 1)) + value(seg(mid))) / 2.0,
        build(left, lo, mid, varying), build(right, mid, hi, varying))
    }

    build(sample, 0, nGroups, Array.range(0, nFeatures))
  }

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

  private val TwoPowMinus51  = java.lang.Math.scalb(1.0, -51)
  private val TwoPowMinus900 = java.lang.Math.scalb(1.0, -900)

  /** Dense rank of each value of `col` under `java.lang.Double.compare`:
    * equal values share a key and `-0.0` ranks below `0.0`.
    */
  private[ml] def denseRanks(col: Array[Double]): Array[Int] = {
    val distinct = col.clone()
    java.util.Arrays.sort(distinct)
    var k = 0
    var i = 0
    while (i < distinct.length) {
      if (k == 0 || java.lang.Double.compare(distinct(k - 1), distinct(i)) != 0) { distinct(k) = distinct(i); k += 1 }
      i += 1
    }
    col.map(v => java.util.Arrays.binarySearch(distinct, 0, k, v))
  }
}
