package repro.ml

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite

class RegressionTreeSpec extends AnyFunSuite {
  private def rng = new Random(1)

  private def fitOn(x: Seq[Array[Double]], y: Seq[Array[Double]],
                    params: RegressionTree.Params = RegressionTree.Params()): RegressionTree.Node =
    RegressionTree.fit(x.toIndexedSeq, y.toIndexedSeq, params, rng)

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

  test("maxDepth = 1 forces a single leaf predicting the mean") {
    val x = (1 to 4).map(i => Array(i.toDouble))
    val y = (1 to 4).map(i => Array(i.toDouble))
    val tree = fitOn(x, y, RegressionTree.Params(maxDepth = 1))
    assert(tree.isInstanceOf[RegressionTree.Leaf])
    assert(math.abs(tree.predict(Array(0.0))(0) - 2.5) < 1e-12)
  }

  test("minSamplesLeaf is honoured") {
    val x = (1 to 6).map(i => Array(i.toDouble))
    val y = (1 to 6).map(i => Array(if (i <= 5) 0.0 else 100.0))
    // A leaf of 1 sample would isolate the outlier; minSamplesLeaf=2 forbids it.
    val tree = fitOn(x, y, RegressionTree.Params(minSamplesLeaf = 2))
    def leaves(n: RegressionTree.Node): Seq[RegressionTree.Leaf] = n match {
      case l: RegressionTree.Leaf             => Seq(l)
      case RegressionTree.Split(_, _, l, r)   => leaves(l) ++ leaves(r)
    }
    assert(leaves(tree).forall(_ => true)) // structure is valid
    // Best split under the constraint puts >= 2 samples in each side, so no
    // leaf can predict exactly 100.0 (the singleton).
    assert(!leaves(tree).exists(_.value(0) == 100.0))
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

  test("depth and nodeCount are consistent") {
    val x = (1 to 8).map(i => Array(i.toDouble))
    val y = (1 to 8).map(i => Array(i.toDouble))
    val tree = fitOn(x, y)
    assert(tree.nodeCount == 15) // perfect binary tree over 8 distinct points
    assert(tree.depth == 4)
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
        assert(RegressionTree.sortByFeature(idx, x, f).sameElements(idx.sortBy(i => x(i)(f))), s"n=$n spread=$spread f=$f")
    }
  }

  test("sortByFeature orders -0.0 before 0.0 and leaves its input untouched") {
    val x   = IndexedSeq(Array(0.0), Array(-0.0), Array(-1.0), Array(0.0), Array(-0.0))
    val idx = Array(0, 1, 2, 3, 4)
    assert(RegressionTree.sortByFeature(idx, x, 0).sameElements(Array(2, 1, 4, 0, 3)))
    assert(idx.sameElements(Array(0, 1, 2, 3, 4)))
  }

  test("rank keys of the whole column order any rows of it like idx.sortBy") {
    val r = new Random(17)
    for (n <- Seq(1, 2, 16, 17, 82, 300); spread <- Seq(1, 3, 50)) {
      // Few distinct values make long tie runs; both zeros are among them.
      val values = IndexedSeq(-0.0, 0.0) ++ IndexedSeq.fill(spread)(math.floor(r.nextGaussian() * 4) / 2)
      val col    = Array.fill(n)(values(r.nextInt(values.size)))
      val x      = col.map(v => Array(v)).toIndexedSeq
      val rank   = RegressionTree.denseRanks(col)
      for (draw <- 0 until 6) {
        // Rows in random order, as a node holds them: distinct, or repeating
        // as in a bootstrap sample.
        val size = 1 + r.nextInt(n)
        val idx =
          if (draw % 2 == 0) r.shuffle((0 until n).toList).take(size).toArray
          else Array.fill(size)(r.nextInt(n))
        val out = idx.clone()
        val split = RegressionTree.orderByRank(idx, rank, new Array[Int](n + 1), out)
        assert(out.sameElements(idx.sortBy(i => x(i)(0))), s"n=$n spread=$spread")
        assert(split == idx.map(i => x(i)(0)).distinctBy(java.lang.Double.doubleToLongBits).length > 1)
      }
    }
  }

  test("maxFeatures = 1 still fits (feature subsampling)") {
    val x = (1 to 20).map(i => Array(i.toDouble, (20 - i).toDouble))
    val y = (1 to 20).map(i => Array(i.toDouble))
    val tree = RegressionTree.fit(x, y, RegressionTree.Params(maxFeatures = 1), new Random(5))
    // Both features are informative (x2 = 20 - x1), so any subsample works.
    assert(tree.predict(Array(1.0, 19.0))(0) < tree.predict(Array(20.0, 0.0))(0))
  }
}
