package repro.ml

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import RegressionTree.{Leaf, Node, Rows, Split, denseRanks}

object RegressionTreeSpec {

  /** Fit a tree on `x(i) -> y(i)`, each row once. */
  def fit(x: IndexedSeq[Array[Double]], y: IndexedSeq[Array[Double]]): Node =
    RegressionTree.grow(new Rows(x, y), Array.range(0, x.length))

  /** The row sort of [[exhaustiveGrow]]. Writes `idx` ordered by `rank`,
    * ties kept in input order, to `out(0 until idx.length)` and returns
    * true; returns false and leaves `out` alone when all of `idx` share one
    * key. A stable counting sort over the key range, or an insertion sort
    * when the range is wide for this few rows. `buckets` needs one more
    * entry than the key range.
    */
  def orderByRank(idx: Array[Int], rank: Array[Int], buckets: Array[Int], out: Array[Int]): Boolean = {
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
    * `idx.sortBy(i => x(i)(f))` gives, without boxing.
    */
  def sortByFeature(idx: Array[Int], x: IndexedSeq[Array[Double]], f: Int): Array[Int] = {
    val out = idx.clone()
    orderByRank(idx, denseRanks(Array.tabulate(x.length)(i => x(i)(f))), new Array[Int](x.length + 1), out)
    out
  }

  /** The exhaustive CART search, row by row: every node sorts its rows by
    * every feature and every cut between distinct values gets the exact
    * gain. The reference [[RegressionTree.grow]] must match bit for bit.
    */
  def exhaustiveGrow(data: Rows, sample: Array[Int]): Node = {
    val n         = sample.length
    val nFeatures = data.nFeatures
    val nOutputs  = data.nOutputs
    val targets   = data.targets
    val columns   = data.columns
    val ranks     = data.ranks

    // Scratch reused by every node: its rows ordered by the current feature
    // and by the best feature so far, counting-sort buckets, the targets of
    // its rows in order, and per-output sums.
    val order   = new Array[Int](n)
    val best    = new Array[Int](n)
    val buckets = new Array[Int](data.size + 1)
    val ordered = new Array[Double](n * nOutputs)
    val sumLeft = new Array[Double](nOutputs)
    val mean    = new Array[Double](nOutputs)

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

    def build(idx: Array[Int]): Node = {
      val m = idx.length
      gather(idx, m)
      val parentSse = sse(0, m)
      if (parentSse <= 1e-12) return leaf(idx)

      var bestGain = 0.0
      var bestFeature = -1
      var bestThreshold = 0.0
      var bestCut = 0

      var f = 0
      while (f < nFeatures) {
        if (orderByRank(idx, ranks(f), buckets, order)) {
          gather(order, m)
          val col = columns(f)
          var improved = false
          var o = 0
          while (o < nOutputs) { sumLeft(o) = 0.0; o += 1 }
          // Candidate thresholds: midpoints between consecutive distinct values.
          var i = 0
          while (i < m - 1) {
            o = 0
            while (o < nOutputs) { sumLeft(o) += ordered(i * nOutputs + o); o += 1 }
            val v0 = col(order(i)); val v1 = col(order(i + 1))
            val cut = i + 1
            if (v0 < v1) {
              o = 0
              while (o < nOutputs) { mean(o) = sumLeft(o) / cut; o += 1 }
              val sseLeft = deviation(0, cut)
              val gain    = parentSse - sseLeft - sse(cut, m)
              if (gain > bestGain + 1e-15) {
                bestGain = gain; bestFeature = f; bestThreshold = (v0 + v1) / 2.0; bestCut = cut
                improved = true
              }
            }
            i += 1
          }
          if (improved) System.arraycopy(order, 0, best, 0, m)
        }
        f += 1
      }

      if (bestFeature < 0) leaf(idx)
      else {
        val left  = java.util.Arrays.copyOfRange(best, 0, bestCut)
        val right = java.util.Arrays.copyOfRange(best, bestCut, m)
        Split(bestFeature, bestThreshold, build(left), build(right))
      }
    }

    build(sample)
  }
}

class RegressionTreeSpec extends AnyFunSuite {
  private def fitOn(x: Seq[Array[Double]], y: Seq[Array[Double]]): RegressionTree.Node =
    RegressionTreeSpec.fit(x.toIndexedSeq, y.toIndexedSeq)

  test("pure leaf when all targets identical") {
    val tree = fitOn(Seq(Array(1.0), Array(2.0), Array(3.0)), Seq.fill(3)(Array(5.0)))
    assert(tree.isInstanceOf[RegressionTree.Leaf])
    assert(tree.predict(Array(9.0)).sameElements(Array(5.0)))
  }

  test("splits a perfectly separable step function") {
    val x = Seq(Array(1.0), Array(2.0), Array(10.0), Array(11.0))
    val y = Seq(Array(0.0), Array(0.0), Array(100.0), Array(100.0))
    val tree = fitOn(x, y)
    assert(tree.predict(Array(0.0))(0) == 0.0)
    assert(tree.predict(Array(20.0))(0) == 100.0)
  }

  test("interpolates training points exactly with unbounded depth") {
    val x = (1 to 16).map(i => Array(i.toDouble))
    val y = (1 to 16).map(i => Array(i * 2.0))
    val tree = fitOn(x, y)
    x.zip(y).foreach { case (xi, yi) => assert(tree.predict(xi).sameElements(yi)) }
  }

  test("multi-output: predicts joint means and splits on joint impurity") {
    val x = Seq(Array(0.0), Array(1.0), Array(10.0), Array(11.0))
    val y = Seq(Array(1.0, 10.0), Array(1.0, 10.0), Array(5.0, 50.0), Array(5.0, 50.0))
    val tree = fitOn(x, y)
    assert(tree.predict(Array(0.5)).sameElements(Array(1.0, 10.0)))
    assert(tree.predict(Array(10.5)).sameElements(Array(5.0, 50.0)))
  }

  test("splits on the informative feature among distractors") {
    val r = new Random(3)
    val x = (0 until 60).map(_ => Array(r.nextDouble(), r.nextDouble(), r.nextDouble()))
    val y = x.map(f => Array(if (f(1) < 0.5) 0.0 else 10.0))
    val tree = fitOn(x, y)
    tree match {
      case RegressionTree.Split(f, thr, _, _) =>
        assert(f == 1, s"expected split on feature 1, got $f")
        assert(math.abs(thr - 0.5) < 0.1)
      case _ => fail("expected a split at the root")
    }
  }

  /** The number of node levels on the longest root-to-leaf path. */
  private def depth(n: Node): Int = n match {
    case _: Leaf           => 1
    case Split(_, _, l, r) => 1 + math.max(depth(l), depth(r))
  }

  test("depth and nodeCount are consistent") {
    val x = (1 to 8).map(i => Array(i.toDouble))
    val y = (1 to 8).map(i => Array(i.toDouble))
    val tree = fitOn(x, y)
    assert(tree.nodeCount == 15) // perfect binary tree over 8 distinct points
    assert(depth(tree) == 4)
  }

  test("ragged target vectors are rejected") {
    intercept[IllegalArgumentException] {
      fitOn(Seq(Array(1.0), Array(2.0)), Seq(Array(1.0), Array(1.0, 2.0)))
    }
  }

  test("empty training set is rejected") {
    intercept[IllegalArgumentException] { fitOn(Seq.empty, Seq.empty) }
  }

  test("sortByFeature gives the order of idx.sortBy, ties in input order") {
    val r      = new Random(11)
    val values = Array(-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0, 7.5)
    for (n <- Seq(0, 1, 2, 15, 16, 17, 33, 100, 1600); spread <- Seq(2, values.length)) {
      // Bootstrap-like indices: repeats, unsorted, with many equal keys.
      val x   = IndexedSeq.fill(n)(Array(values(r.nextInt(spread)), r.nextGaussian()))
      val idx = Array.fill(n)(r.nextInt(n))
      for (f <- 0 until 2)
        assert(RegressionTreeSpec.sortByFeature(idx, x, f).sameElements(idx.sortBy(i => x(i)(f))), s"n=$n spread=$spread f=$f")
    }
  }

  test("sortByFeature orders -0.0 before 0.0 and leaves its input untouched") {
    val x   = IndexedSeq(Array(0.0), Array(-0.0), Array(-1.0), Array(0.0), Array(-0.0))
    val idx = Array(0, 1, 2, 3, 4)
    assert(RegressionTreeSpec.sortByFeature(idx, x, 0).sameElements(Array(2, 1, 4, 0, 3)))
    assert(idx.sameElements(Array(0, 1, 2, 3, 4)))
  }

  test("rank keys of the whole column order any rows of it like idx.sortBy") {
    val r = new Random(17)
    for (n <- Seq(1, 2, 16, 17, 82, 300); spread <- Seq(1, 3, 50)) {
      // Few distinct values make long tie runs; both zeros are among them.
      val values = IndexedSeq(-0.0, 0.0) ++ IndexedSeq.fill(spread)(math.floor(r.nextGaussian() * 4) / 2)
      val col    = Array.fill(n)(values(r.nextInt(values.size)))
      val x      = col.map(v => Array(v)).toIndexedSeq
      val rank   = denseRanks(col)
      for (draw <- 0 until 6) {
        // Rows in random order, as a node holds them: distinct, or repeating
        // as in a bootstrap sample.
        val size = 1 + r.nextInt(n)
        val idx =
          if (draw % 2 == 0) r.shuffle((0 until n).toList).take(size).toArray
          else Array.fill(size)(r.nextInt(n))
        val out = idx.clone()
        val split = RegressionTreeSpec.orderByRank(idx, rank, new Array[Int](n + 1), out)
        assert(out.sameElements(idx.sortBy(i => x(i)(0))), s"n=$n spread=$spread")
        assert(split == idx.map(i => x(i)(0)).distinctBy(java.lang.Double.doubleToLongBits).length > 1)
      }
    }
  }

  // The bounded sweep against the exhaustive search it replaces: the same
  // tree, split for split and bit for bit, on data built to stress the
  // estimate's error bound.

  private def bits(v: Array[Double]): Seq[Long] = v.toSeq.map(java.lang.Double.doubleToRawLongBits)

  /** Grows a tree on the whole of `x`, `y` and on bootstrap samples of it,
    * with both searches, and compares structure and leaf bits.
    */
  private def assertExhaustive(x: IndexedSeq[Array[Double]], y: IndexedSeq[Array[Double]],
                               samples: Int = 4, clue: String = ""): Unit = {
    val rows = new Rows(x, y)
    val r    = new Random(x.length * 31 + y.head.length)
    val draws = Array.range(0, x.length) +: Seq.fill(samples)(Array.fill(x.length)(r.nextInt(x.length)))
    for ((sample, s) <- draws.zipWithIndex) {
      val got  = RegressionTree.grow(rows, sample)
      val want = RegressionTreeSpec.exhaustiveGrow(rows, sample)
      assert(RandomForestSpec.tree(got) == RandomForestSpec.tree(want), s"$clue sample $s")
      for (xi <- x) assert(bits(got.predict(xi)) == bits(want.predict(xi)), s"$clue sample $s")
    }
  }

  /** `n` rows over `distinct` feature vectors of `width` small integers. */
  private def tiedFeatures(r: Random, n: Int, width: Int, distinct: Int): IndexedSeq[Array[Double]] = {
    val vectors = IndexedSeq.fill(distinct)(Array.fill(width)(r.nextInt(6).toDouble))
    IndexedSeq.fill(n)(vectors(r.nextInt(distinct)).clone())
  }

  test("bounded sweep = exhaustive search: multi-output targets with a large offset and tiny spread") {
    val r = new Random(23)
    for (offset <- Seq(0.0, 1e3, 1e6, -1e6); spread <- Seq(1e-9, 1e-6, 1e-3, 1.0); k <- Seq(1, 2, 3)) {
      val x = IndexedSeq.fill(120)(Array(r.nextDouble(), r.nextInt(8).toDouble, r.nextInt(3).toDouble))
      val y = x.map(f => Array.tabulate(k)(o => offset * (o + 1) + spread * (f(1) + o * f(0) + r.nextGaussian())))
      assertExhaustive(x, y, clue = s"offset $offset spread $spread k $k")
    }
  }

  test("bounded sweep = exhaustive search: magnitudes near 1e150, signed zeros and subnormals") {
    val r = new Random(29)
    val x = IndexedSeq.fill(90)(Array(r.nextInt(10).toDouble, r.nextDouble(), Seq(-0.0, 0.0, 1.0)(r.nextInt(3))))
    // 1e150 keeps the slack finite; 1e153 overflows 8m·Σy², so every cut is exact.
    for (scale <- Seq(1e150, -1e150, 1e153))
      assertExhaustive(x, x.map(f => Array(scale * (f(0) + r.nextGaussian()), scale * f(1))), clue = s"scale $scale")
    val tiny = IndexedSeq(0.0, -0.0, Double.MinPositiveValue, -Double.MinPositiveValue, 1e-310, java.lang.Double.MIN_NORMAL)
    val mixed = x.map(f => Array(tiny(r.nextInt(tiny.size)) + (if (f(0) > 6) f(0) else 0.0), tiny(r.nextInt(tiny.size))))
    assertExhaustive(x, mixed, clue = "subnormals beside normal values")
    assertExhaustive(x, x.map(_ => Array(tiny(r.nextInt(tiny.size)))), clue = "subnormals only")
    assertExhaustive(x, x.map(f => Array(if (f(2) == 0.0) f(2) else 2.0, -f(2))), clue = "signed zeros")
  }

  test("bounded sweep = exhaustive search: many duplicate feature rows") {
    val r = new Random(31)
    for (distinct <- Seq(2, 5, 26); k <- Seq(2, 3)) {
      val x = tiedFeatures(r, 200, 20, distinct)
      val y = x.map(f => Array.tabulate(k)(o => 100.0 * f(o) + f(5) * f(7) + r.nextGaussian() * 0.01))
      assertExhaustive(x, y, clue = s"$distinct distinct vectors, k $k")
    }
  }

  test("bounded sweep = exhaustive search: exact ties in the gain") {
    // Two identical features, a third in reverse order and a palindromic
    // target: in real arithmetic every cut ties with its mirror image and
    // with the same cut of the twin feature.
    val x  = (0 until 8).map(i => Array(i.toDouble, i.toDouble, (7 - i).toDouble))
    val y  = IndexedSeq(0.0, 4.0, 4.0, 0.0, 0.0, 4.0, 4.0, 0.0).map(v => Array(v, 2 * v))
    assertExhaustive(x, y, clue = "mirror")
    val tree = RegressionTreeSpec.fit(x, y)
    assert(tree.isInstanceOf[Split] && tree.asInstanceOf[Split].feature == 0, "a tie goes to the first feature")
    // Large magnitudes, where the estimate's rounding is far above 1e-15.
    assertExhaustive(x, y.map(_.map(_ * 1e7 + 1e9)), clue = "mirror, offset")
  }

  test("bounded sweep = exhaustive search: tied feature vectors with one jittered feature") {
    val r = new Random(37)
    val x = tiedFeatures(r, 150, 6, 40).map(f => { f(0) += r.nextDouble(); f })
    val y = x.map(f => Array(f(0) * f(1) + r.nextGaussian(), 1e4 + f(2) - f(3)))
    assertExhaustive(x, y, samples = 12)
  }

  test("bounded sweep = exhaustive search: a NaN or an infinite target") {
    val r = new Random(41)
    val x = IndexedSeq.fill(60)(Array(r.nextInt(12).toDouble, r.nextDouble()))
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val y = x.indices.map(i => Array(if (i == 17) bad else x(i)(0) + r.nextGaussian(), x(i)(1)))
      assertExhaustive(x, y, samples = 12, clue = s"target $bad")
    }
  }

  test("grouped search = exhaustive search: every feature vector distinct") {
    val r = new Random(43)
    for (n <- Seq(40, 150); k <- Seq(1, 3)) {
      val x = IndexedSeq.fill(n)(Array.fill(5)(r.nextGaussian()))
      val y = x.map(f => Array.tabulate(k)(o => f(o) * f(4) + 3.0 * f(2) + r.nextGaussian() * 0.1))
      assertExhaustive(x, y, clue = s"$n rows, k $k")
    }
  }

  test("grouped search = exhaustive search: features constant on whole subtrees") {
    // Feature 0 picks a region; in each region only two other features
    // vary and the rest hold a per-region constant. Repeated vectors with
    // noisy targets make one-group nodes.
    val r = new Random(47)
    val vectors = IndexedSeq.tabulate(30) { v =>
      val region = v % 3
      Array.tabulate(12)(f => if (f == 0) region.toDouble else if ((f - 1) / 2 == region) r.nextInt(4).toDouble else region * 10.0 + f)
    }
    val x = IndexedSeq.fill(160)(vectors(r.nextInt(vectors.size)).clone())
    val y = x.map(f => Array(f(0) * 5 + f(1 + 2 * f(0).toInt) + r.nextGaussian(), f(2 + 2 * f(0).toInt) + r.nextGaussian()))
    assertExhaustive(x, y, samples = 8)
  }

  test("grouped search = exhaustive search: a late cut beats every earlier one by a wide margin") {
    // Features 0-2 are noise; feature 3 separates the targets by 1000 in
    // its middle, with cuts of feature 3 and of feature 4 after it.
    val r = new Random(53)
    val x = IndexedSeq.fill(80)(Array.fill(5)(r.nextInt(9).toDouble))
    val y = x.map(f => Array((if (f(3) < 4) 0.0 else 1000.0) + r.nextGaussian(), f(4) + r.nextGaussian()))
    assertExhaustive(x, y, clue = "finite targets")
    val tree = RegressionTreeSpec.fit(x, y)
    assert(tree.isInstanceOf[Split] && tree.asInstanceOf[Split].feature == 3, "the root splits on feature 3")
    // A NaN target makes its nodes' slack infinite and their estimates NaN,
    // so no cut there can start the scan; nodes without it still skip ahead.
    val withNaN = y.indices.map(i => if (i == 5) Array(Double.NaN, y(i)(1)) else y(i))
    assertExhaustive(x, withNaN, samples = 12, clue = "a NaN target")
  }

  test("grouped search = exhaustive search: twin features and near-twins") {
    // Feature 1 copies feature 0 and feature 2 orders like it: twins. Feature
    // 3 splits feature 0's zeros into -0.0 and 0.0 (a rank change without a
    // cut), feature 4 maps its 5s to NaN (a rank change without a cut) and
    // feature 5 reverses it: none of these is a twin of feature 0.
    val r = new Random(59)
    val x = IndexedSeq.fill(150) {
      val a = r.nextInt(6).toDouble
      Array(a, a, math.exp(a), if (a == 0.0 && r.nextBoolean()) -0.0 else a, if (a == 5.0) Double.NaN else a, -a, r.nextInt(3).toDouble)
    }
    for (offset <- Seq(0.0, 1e7)) {
      val y = x.map(f => Array(offset + f(0) * f(0) + f(6) + r.nextGaussian() * 0.1, offset - 2 * f(0) + r.nextGaussian()))
      assertExhaustive(x, y, samples = 8, clue = s"offset $offset")
    }
  }

  test("grouped search = exhaustive search: no cut gains anything, estimated with large rounding error") {
    // Both sides of every cut hold the same targets, so every gain is 0 in
    // real arithmetic. The offset makes the estimates off by far more than
    // 1e-15, so only a lower bound that subtracts the slack keeps the scan
    // from starting at a cut the exhaustive search would not take.
    val x = IndexedSeq.tabulate(12)(i => Array((i % 4).toDouble, (i % 2).toDouble))
    for (offset <- Seq(1e6, -1e6, 3e6, 1e7, 7e7, 1e8)) {
      val y = x.indices.map(i => Array(offset + (i / 4) * 1e-3, offset - (i / 4) * 2e-3))
      assertExhaustive(x, y, samples = 8, clue = s"offset $offset")
    }
  }

  test("scanStart: the last cut whose lower bound beats every earlier upper bound") {
    import RegressionTree.scanStart
    assert(scanStart(Array(1.0, 2.0, 100.0, 3.0, 99.0), 5, 0.5) == 2)
    assert(scanStart(Array(1.0, 2.0, 100.0, 3.0, 99.0), 3, 0.5) == 2)
    assert(scanStart(Array(1.0, 2.0, 100.0, 3.0, 101.5), 5, 0.5) == 4)
    // The lower bound subtracts the slack: 1.8 - 0.5 does not beat 1.0 + 0.5.
    assert(scanStart(Array(1.0, 1.8), 2, 0.5) == 0)
    assert(scanStart(Array(1.0, 2.0 + 1e-9), 2, 0.5) == 1)
    // It must beat 0 and the earlier bounds by more than 1e-15.
    assert(scanStart(Array(0.5), 1, 0.5) == -1)
    assert(scanStart(Array(0.0, 1.0), 2, 0.5) == -1)
    assert(scanStart(Array(0.0, 1.0 + 1e-9), 2, 0.5) == 1)
    assert(scanStart(Array(-5.0, 0.4, 1.0), 3, 0.0) == 2)
    // A NaN estimate bounds nothing: no cut after it qualifies.
    assert(scanStart(Array(1.0, Double.NaN, 100.0), 3, 0.5) == 0)
    assert(scanStart(Array(Double.NaN, 100.0), 2, 0.5) == -1)
    assert(scanStart(Array(1.0, 100.0), 2, Double.PositiveInfinity) == -1)
    assert(scanStart(Array.emptyDoubleArray, 0, 0.5) == -1)
  }

  test("bestCut: the scan start wins without an exact gain when no later cut could beat it") {
    import RegressionTree.bestCut
    val called = collection.mutable.ArrayBuffer.empty[Int]
    def gains(g: Double*): Int => Double = { k => called += k; g(k) }
    // d = 1; cut 2's 2.0 + 0.5 does not top d's lower bound 10.0 - 0.5.
    assert(bestCut(Array(1.0, 10.0, 2.0), 3, 0.5, gains(1.0, 10.0, 2.0)) == 1)
    assert(called.isEmpty)
    // No d: every cut that could beat the best so far gets its exact gain.
    assert(bestCut(Array(0.2, 0.6, 0.3), 3, 0.5, gains(0.2, 0.6, 0.3)) == 1)
    assert(called == Seq(0, 1, 2))
    called.clear()
    assert(bestCut(Array.emptyDoubleArray, 0, 0.5, gains()) == -1)
    assert(called.isEmpty)
  }

  test("bestCut: a later cut that tops the scan start's lower bound forces its exact gain") {
    import RegressionTree.bestCut
    val called = collection.mutable.ArrayBuffer.empty[Int]
    def gains(g: Double*): Int => Double = { k => called += k; g(k) }
    // d = 0 with lower bound 10.0 - 0.5; cut 1's 9.5 + 0.5 tops it. d's
    // exact gain 9.6 leaves room for cut 1, whose exact gain 9.9 wins:
    // both lie within the slack of their estimates.
    assert(bestCut(Array(10.0, 9.5), 2, 0.5, gains(9.6, 9.9)) == 1)
    assert(called == Seq(0, 1))
    called.clear()
    // d's exact gain 10.4 rules cut 1 out without its exact gain.
    assert(bestCut(Array(10.0, 9.5), 2, 0.5, gains(10.4, 9.9)) == 0)
    assert(called == Seq(0))
    called.clear()
    // A NaN estimate after d gets the exact gain, and d's before it.
    assert(bestCut(Array(10.0, Double.NaN), 2, 0.5, gains(9.6, 20.0)) == 1)
    assert(called == Seq(0, 1))
  }

  test("grouped search = exhaustive search: node impurity within the leaf-test margin around 1e-12") {
    // Targets with a large offset and a squared error near 1e-12: E' is off
    // by far more than 1e-12, so only a margin that covers its rounding
    // settles the leaf test the way the row-order SSE does.
    val r = new Random(61)
    val x = IndexedSeq.tabulate(8)(i => Array(i.toDouble, (i % 3).toDouble))
    val roots = for (offset <- Seq(0.0, 1e3, -1e4, 1e6); sse <- Seq(0.3e-12, 0.8e-12, 1.0e-12, 1.2e-12, 3e-12); k <- Seq(1, 2)) yield {
      val noise = IndexedSeq.fill(x.length)(r.nextGaussian())
      val mean  = noise.sum / noise.length
      val scale = math.sqrt(sse / k / noise.map(v => (v - mean) * (v - mean)).sum)
      val y     = noise.map(v => Array.tabulate(k)(o => offset * (o + 1) + (v - mean) * scale))
      assertExhaustive(x, y, samples = 6, clue = s"offset $offset sse $sse k $k")
      RegressionTreeSpec.exhaustiveGrow(new Rows(x, y), Array.range(0, x.length)).isInstanceOf[Leaf]
    }
    assert(roots.contains(true) && roots.contains(false), "the roots straddle the leaf test")
  }

  test("grouped search = exhaustive search: a scan start that wins with no exact gain") {
    // A step of 100 in feature 0's middle: its cut's lower bound is far
    // above every later cut's upper bound, so the root, and the nodes
    // below it, split without the winner's exact gain.
    val r = new Random(67)
    val x = IndexedSeq.tabulate(64)(i => Array((i % 16).toDouble, r.nextInt(5).toDouble))
    val y = x.map(f => Array((if (f(0) < 8) 0.0 else 100.0) + f(0) * 0.5 + r.nextGaussian() * 1e-3, f(1)))
    assertExhaustive(x, y, samples = 8)
  }

  test("grouped search = exhaustive search: a later cut forces the scan start's exact gain") {
    // Feature 1 orders the rows as feature 0 does but for one swapped pair
    // far from the step, so it is no twin. Its cut at the step has the same
    // sides as the scan start, feature 0's: in real arithmetic the same
    // gain, so its `G' + slack` tops the scan start's lower bound.
    val r = new Random(71)
    for (offset <- Seq(0.0, 1e5)) {
      val x = IndexedSeq.tabulate(40)(i => Array(i.toDouble, (if (i < 2) 1 - i else i).toDouble))
      val y = x.map(f => Array(offset + (if (f(0) < 20) 0.0 else 1.0) + r.nextGaussian() * 1e-9))
      assertExhaustive(x, y, samples = 8, clue = s"offset $offset")
    }
  }

  test("grouped search = exhaustive search: groups of equal feature vectors with distinct targets") {
    // Four feature vectors repeated over 120 rows, each row with its own
    // target: a node's sums come from its groups, and a one-group node is
    // a leaf that averages distinct targets.
    val r       = new Random(73)
    val vectors = IndexedSeq(Array(0.0, 1.0, 5.0), Array(1.0, 1.0, 2.0), Array(1.0, 0.0, 2.0), Array(2.0, 0.0, 9.0))
    val x       = IndexedSeq.fill(120)(vectors(r.nextInt(vectors.size)).clone())
    for (offset <- Seq(0.0, 1e6)) {
      val y = x.map(f => Array(offset + f(0) * 3 + r.nextGaussian(), f(2) - offset + r.nextGaussian() * 0.1))
      assertExhaustive(x, y, samples = 8, clue = s"offset $offset")
    }
  }

  test("Rows.searched leaves out a feature that is an earlier one's twin on every set of groups") {
    // Feature 1 copies feature 0 and feature 2 triples it. Feature 3 turns
    // its zeros into -0.0 and feature 4 its 5s into NaN: the same rank keys,
    // but values of another kind. Feature 5 reverses it.
    val x = IndexedSeq.tabulate(30) { i =>
      val a = (i % 6).toDouble
      Array(a, a, a * 3, if (a == 0.0) -0.0 else a, if (a == 5.0) Double.NaN else a, -a)
    }
    assert(new Rows(x, x.map(_ => Array(0.0))).searched.toSeq == Seq(0, 3, 4, 5))
  }

  test("Rows groups rows by their rank keys: -0.0 and 0.0 apart, every NaN together") {
    val otherNaN = java.lang.Double.longBitsToDouble(0x7ff8000000000001L)
    val x = IndexedSeq(Array(0.0, 1.0), Array(-0.0, 1.0), Array(Double.NaN, 1.0), Array(otherNaN, 1.0), Array(0.0, 1.0), Array(0.0, 2.0))
    val rows = new Rows(x, x.map(_ => Array(0.0)))
    val g = rows.groupOf
    assert(rows.nGroups == 4)
    assert(g(0) == g(4) && g(2) == g(3))
    assert(Seq(g(0), g(1), g(2), g(5)).distinct.size == 4)
    // Feature 0 in rank order: -0.0, then both groups at 0.0 (by id), then NaN.
    assert(rows.groupsByRank(0).map(rows.groupValues(0)(_)).map(java.lang.Double.doubleToLongBits).toSeq ==
      Seq(-0.0, 0.0, 0.0, Double.NaN).map(java.lang.Double.doubleToLongBits))
    assert(rows.groupsByRank(1).map(rows.groupRanks(1)(_)).toSeq == Seq(0, 0, 0, 1))
  }
}
