package repro.ml

import scala.util.Random

/** Multi-output CART regression tree.
  *
  * This is the per-tree building block of [[RandomForest]], our from-scratch
  * substitute for scikit-learn's `RandomForestRegressor` (the paper trains
  * the parameter model `g: query characteristics -> {PPM scalars}` with it,
  * §3.4). Multi-output leaves predict the mean target *vector* and splits
  * minimise the summed per-output squared error, mirroring sklearn's
  * multi-target behaviour so a single model predicts {a, b, m} or {s, p}
  * jointly.
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
    def depth: Int = this match {
      case _: Leaf            => 1
      case Split(_, _, l, r)  => 1 + math.max(l.depth, r.depth)
    }
    def nodeCount: Int = this match {
      case _: Leaf           => 1
      case Split(_, _, l, r) => 1 + l.nodeCount + r.nodeCount
    }
  }
  final case class Leaf(value: Array[Double]) extends Node
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  /** Hyper-parameters; defaults follow sklearn's `RandomForestRegressor`
    * defaults (unbounded depth, split down to 2 samples, 1-sample leaves).
    * `maxFeatures` is the number of candidate features examined per split
    * (sklearn regression default: all features).
    */
  final case class Params(
      maxDepth: Int = Int.MaxValue,
      minSamplesSplit: Int = 2,
      minSamplesLeaf: Int = 1,
      maxFeatures: Int = Int.MaxValue,
  )

  /** Training rows in the layout split search reads: one array per
    * feature, its dense rank keys (see [[denseRanks]]) and the targets
    * flattened row by row. A forest builds this once for all its trees.
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
  }

  /** Fit a tree on `rows(i) = (features, targets)` using `rng` only for the
    * per-split feature subsample (bootstrap resampling is the forest's job).
    */
  def fit(x: IndexedSeq[Array[Double]], y: IndexedSeq[Array[Double]], params: Params, rng: Random): Node =
    grow(new Rows(x, y), Array.range(0, x.length), params, rng)

  /** Fit a tree on the rows `sample` of `data`, in that order; a row may
    * repeat, as in a bootstrap sample. The tree is the one [[fit]] gives on
    * `sample.map(x)` and `sample.map(y)`.
    *
    * A node orders its rows by a feature's rank keys with a stable counting
    * or insertion sort, and skips a feature that is constant on its rows.
    * A cut's gain is `parentSse - sseLeft - sseRight`, each side's impurity
    * summed over an index range of the node's targets in that order around
    * the side's mean: the same summation order as recomputing each side from
    * scratch. That exact gain costs O(m·K) for a node of m rows and K
    * outputs, so `sweep` first estimates each cut of a feature in O(K) from
    * running sums,
    * {{{
    * G' = Σ_o L_o²/c + Σ_o R_o²/r − Σ_o P_o²/m,   R_o = P_o − L_o
    * }}}
    * with `L_o` the sum of output `o` over the `c` rows left of the cut,
    * `R_o` over the `r = m − c` rows right of it and `P_o` over the node. In
    * real arithmetic `G'` is the gain. A cut gets the exact gain only when
    * `G' + slack` could beat the best gain so far, and only the exact gain
    * can replace the best split, so the tree is the one the exhaustive
    * search builds, bit for bit. Only the winning split is cut into child
    * index arrays.
    *
    * `slack` bounds |gain − G'| for every cut of a node. With u = 2^-53^,
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
    *    rounding of `G' + slack` in the test.
    *  - No overflow or underflow breaks this: the slack is finite only while
    *    2^-900^ ≤ Ŝ and 8m·Ŝ < `Double.MaxValue`. Then no sum or square of
    *    either computation overflows (s² ≤ A² ≤ m·S), and each rounded
    *    product or quotient that underflows adds at most 2^-1075^, far
    *    below u·Ŝ.
    *
    * Otherwise (a NaN or infinite target, or targets near either end of the
    * double range) the slack is +∞ and every cut gets the exact gain. A cut
    * is skipped only when `G' + slack <= best + 1e-15`, so a cut whose
    * estimate is NaN gets the exact gain too.
    */
  private[ml] def grow(data: Rows, sample: Array[Int], params: Params, rng: Random): Node = {
    val n         = sample.length
    val nFeatures = data.nFeatures
    val nOutputs  = data.nOutputs
    val targets   = data.targets
    val columns   = data.columns
    val ranks     = data.ranks

    // Scratch reused by every node: its rows ordered by the current feature
    // and by the best feature so far, counting-sort buckets, the targets of
    // its rows in order, and per-output sums.
    val order     = new Array[Int](n)
    val best      = new Array[Int](n)
    val buckets   = new Array[Int](data.size + 1)
    val ordered   = new Array[Double](n * nOutputs)
    val sumLeft   = new Array[Double](nOutputs)
    val nodeSum   = new Array[Double](nOutputs)
    val mean      = new Array[Double](nOutputs)

    // The current node's best split so far.
    var bestGain      = 0.0
    var bestFeature   = -1
    var bestThreshold = 0.0
    var bestCut       = 0

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

    /** Tries every cut of feature `f` over the node's `m` rows in `order`,
      * giving the exact gain to the cuts whose estimate plus `slack` could
      * beat the best split so far. `nodeSum` holds the node's P_o and
      * `parentTerm` its Σ_o P_o²/m.
      */
    def sweep(f: Int, m: Int, parentSse: Double, parentTerm: Double, slack: Double): Unit = {
      val col = columns(f)
      var gathered = false
      var improved = false
      var o = 0
      while (o < nOutputs) { sumLeft(o) = 0.0; o += 1 }
      // Candidate thresholds: midpoints between consecutive distinct values.
      var i = 0
      while (i < m - 1) {
        val q = order(i) * nOutputs
        o = 0
        while (o < nOutputs) { sumLeft(o) += targets(q + o); o += 1 }
        val v0 = col(order(i)); val v1 = col(order(i + 1))
        val cut = i + 1
        if (v0 < v1 && cut >= params.minSamplesLeaf && m - cut >= params.minSamplesLeaf) {
          var estimate = 0.0
          o = 0
          while (o < nOutputs) {
            val l = sumLeft(o); val r = nodeSum(o) - l
            estimate += l * l / cut + r * r / (m - cut)
            o += 1
          }
          if (!(estimate - parentTerm + slack <= bestGain + 1e-15)) {
            if (!gathered) { gather(order, m); gathered = true }
            o = 0
            while (o < nOutputs) { mean(o) = sumLeft(o) / cut; o += 1 }
            val sseLeft = deviation(0, cut)
            val gain    = parentSse - sseLeft - sse(cut, m)
            if (gain > bestGain + 1e-15) {
              bestGain = gain; bestFeature = f; bestThreshold = (v0 + v1) / 2.0; bestCut = cut
              improved = true
            }
          }
        }
        i += 1
      }
      if (improved) System.arraycopy(order, 0, best, 0, m)
    }

    def build(idx: Array[Int], depth: Int): Node = {
      val m = idx.length
      if (depth >= params.maxDepth || m < params.minSamplesSplit) return leaf(idx)
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

      val nCand = math.min(params.maxFeatures, nFeatures)
      val candidates =
        if (nCand >= nFeatures) (0 until nFeatures).toArray
        else rng.shuffle((0 until nFeatures).toList).take(nCand).toArray

      bestGain = 0.0; bestFeature = -1; bestThreshold = 0.0; bestCut = 0
      var c = 0
      while (c < candidates.length) {
        val f = candidates(c)
        if (orderByRank(idx, ranks(f), buckets, order)) sweep(f, m, parentSse, parentTerm, slack)
        c += 1
      }

      if (bestFeature < 0) leaf(idx)
      else {
        val left  = java.util.Arrays.copyOfRange(best, 0, bestCut)
        val right = java.util.Arrays.copyOfRange(best, bestCut, m)
        Split(bestFeature, bestThreshold, build(left, depth + 1), build(right, depth + 1))
      }
    }

    // Depth is counted in node levels: a maxDepth of 1 yields a single leaf.
    build(sample, depth = 1)
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

  /** Writes `idx` ordered by `rank`, ties kept in input order, to
    * `out(0 until idx.length)` and returns true; returns false and leaves
    * `out` alone when all of `idx` share one key. A stable counting sort
    * over the key range, or an insertion sort when the range is wide for
    * this few rows. `buckets` needs one more entry than the key range.
    */
  private[ml] def orderByRank(idx: Array[Int], rank: Array[Int], buckets: Array[Int], out: Array[Int]): Boolean = {
    val m = idx.length
    var lo = Int.MaxValue
    var hi = Int.MinValue
    var i = 0
    while (i < m) { val k = rank(idx(i)); if (k < lo) lo = k; if (k > hi) hi = k; i += 1 }
    if (lo >= hi) return false
    val range = hi - lo + 1
    if (range < m.toLong * m / 4) {
      java.util.Arrays.fill(buckets, 0, range + 1, 0)
      i = 0
      while (i < m) { buckets(rank(idx(i)) - lo + 1) += 1; i += 1 }
      var b = 1
      while (b < range) { buckets(b) += buckets(b - 1); b += 1 }
      i = 0
      while (i < m) { val k = rank(idx(i)) - lo; out(buckets(k)) = idx(i); buckets(k) += 1; i += 1 }
    } else {
      System.arraycopy(idx, 0, out, 0, m)
      i = 1
      while (i < m) {
        val id = out(i); val k = rank(id)
        var j = i - 1
        while (j >= 0 && rank(out(j)) > k) { out(j + 1) = out(j); j -= 1 }
        out(j + 1) = id
        i += 1
      }
    }
    true
  }

  /** `idx` ordered by feature `f`, ties kept in input order: the order
    * `idx.sortBy(i => x(i)(f))` gives, without boxing, and the order [[fit]]
    * gives a node's rows.
    */
  private[ml] def sortByFeature(idx: Array[Int], x: IndexedSeq[Array[Double]], f: Int): Array[Int] = {
    val out = idx.clone()
    orderByRank(idx, denseRanks(Array.tabulate(x.length)(i => x(i)(f))), new Array[Int](x.length + 1), out)
    out
  }
}
