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
  sealed trait Node extends Serializable {
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

  /** Fit a tree on `rows(i) = (features, targets)` using `rng` only for the
    * per-split feature subsample (bootstrap resampling is the forest's job).
    */
  def fit(x: IndexedSeq[Array[Double]], y: IndexedSeq[Array[Double]], params: Params, rng: Random): Node = {
    require(x.nonEmpty && x.length == y.length, s"bad input sizes: ${x.length} vs ${y.length}")
    val nFeatures = x.head.length
    val nOutputs  = y.head.length
    require(y.forall(_.length == nOutputs), "ragged target vectors")

    def meanOf(idx: Array[Int]): Array[Double] = {
      val m = new Array[Double](nOutputs)
      var i = 0
      while (i < idx.length) {
        val t = y(idx(i)); var o = 0
        while (o < nOutputs) { m(o) += t(o); o += 1 }
        i += 1
      }
      var o = 0
      while (o < nOutputs) { m(o) /= idx.length; o += 1 }
      m
    }

    // Summed-across-outputs SSE of `idx` around its mean — the CART impurity.
    def sse(idx: Array[Int]): Double = {
      val m = meanOf(idx)
      var s = 0.0; var i = 0
      while (i < idx.length) {
        val t = y(idx(i)); var o = 0
        while (o < nOutputs) { val d = t(o) - m(o); s += d * d; o += 1 }
        i += 1
      }
      s
    }

    def build(idx: Array[Int], depth: Int): Node = {
      if (depth >= params.maxDepth || idx.length < params.minSamplesSplit) return Leaf(meanOf(idx))
      val parentSse = sse(idx)
      if (parentSse <= 1e-12) return Leaf(meanOf(idx))

      val nCand = math.min(params.maxFeatures, nFeatures)
      val candidates =
        if (nCand >= nFeatures) (0 until nFeatures).toArray
        else rng.shuffle((0 until nFeatures).toList).take(nCand).toArray

      var bestGain = 0.0
      var bestFeature = -1
      var bestThreshold = 0.0
      var bestLeft: Array[Int] = null
      var bestRight: Array[Int] = null

      for (f <- candidates) {
        val sorted = sortByFeature(idx, x, f)
        // Candidate thresholds: midpoints between consecutive distinct values.
        var i = 0
        while (i < sorted.length - 1) {
          val v0 = x(sorted(i))(f); val v1 = x(sorted(i + 1))(f)
          if (v0 < v1) {
            val thr   = (v0 + v1) / 2.0
            val left  = sorted.take(i + 1)
            val right = sorted.drop(i + 1)
            if (left.length >= params.minSamplesLeaf && right.length >= params.minSamplesLeaf) {
              val gain = parentSse - sse(left) - sse(right)
              if (gain > bestGain + 1e-15) {
                bestGain = gain; bestFeature = f; bestThreshold = thr
                bestLeft = left; bestRight = right
              }
            }
          }
          i += 1
        }
      }

      if (bestFeature < 0) Leaf(meanOf(idx))
      else Split(bestFeature, bestThreshold, build(bestLeft, depth + 1), build(bestRight, depth + 1))
    }

    // Depth is counted in node levels: a maxDepth of 1 yields a single leaf.
    build(x.indices.toArray, depth = 1)
  }

  /** `idx` ordered by feature `f`, ties kept in input order: the order
    * `idx.sortBy(i => x(i)(f))` gives, without boxing. The keys are copied
    * into a primitive array and compared with `java.lang.Double.compare`,
    * like Scala's default `Ordering[Double]`.
    */
  private[ml] def sortByFeature(idx: Array[Int], x: IndexedSeq[Array[Double]], f: Int): Array[Int] = {
    val n    = idx.length
    val keys = new Array[Double](n)
    var i = 0
    while (i < n) { keys(i) = x(idx(i))(f); i += 1 }
    val ids = idx.clone()
    mergeSort(keys, ids, new Array[Double](n), new Array[Int](n), 0, n)
    ids
  }

  /** Runs up to this length are insertion-sorted. */
  private val InsertionRun = 16

  /** Stable merge sort of `keys(lo until hi)`, moving `ids` along; `tk`/`tv`
    * are scratch buffers of the same length.
    */
  private def mergeSort(keys: Array[Double], ids: Array[Int], tk: Array[Double], tv: Array[Int], lo: Int, hi: Int): Unit =
    if (hi - lo <= InsertionRun) {
      var i = lo + 1
      while (i < hi) {
        val k = keys(i); val id = ids(i)
        var j = i - 1
        while (j >= lo && java.lang.Double.compare(keys(j), k) > 0) {
          keys(j + 1) = keys(j); ids(j + 1) = ids(j); j -= 1
        }
        keys(j + 1) = k; ids(j + 1) = id
        i += 1
      }
    } else {
      val mid = (lo + hi) >>> 1
      mergeSort(keys, ids, tk, tv, lo, mid)
      mergeSort(keys, ids, tk, tv, mid, hi)
      // Skip the merge when the halves are already in order.
      if (java.lang.Double.compare(keys(mid - 1), keys(mid)) > 0) {
        System.arraycopy(keys, lo, tk, lo, hi - lo)
        System.arraycopy(ids, lo, tv, lo, hi - lo)
        var a = lo; var b = mid; var o = lo
        while (o < hi) {
          // Ties take the left half first, which keeps the sort stable.
          if (b >= hi || (a < mid && java.lang.Double.compare(tk(a), tk(b)) <= 0)) {
            keys(o) = tk(a); ids(o) = tv(a); a += 1
          } else {
            keys(o) = tk(b); ids(o) = tv(b); b += 1
          }
          o += 1
        }
      }
    }
}
