package repro.ml

import scala.util.Random
import repro.Par

/** Bagged multi-output random-forest regressor.
  *
  * From-scratch substitute for scikit-learn's `RandomForestRegressor` at its
  * default parameters (paper §3.4 / §5.6): 100 estimators by default, each
  * grown on a bootstrap sample with every feature a candidate at every split
  * (sklearn's regression default; see [[RegressionTree]]), multi-output
  * leaves. Its on-disk form, the stand-in for the paper's ONNX export
  * (§4.3/§4.4), is the [[repro.core.ParameterModel]] file.
  */
final case class RandomForest(
    trees: IndexedSeq[RegressionTree.Node],
    featureNames: IndexedSeq[String],
    nOutputs: Int,
) {

  /** Mean of the per-tree predictions (the standard bagging aggregate). */
  def predict(x: Array[Double]): Array[Double] = {
    require(x.length == featureNames.length,
      s"expected ${featureNames.length} features, got ${x.length}")
    val acc = new Array[Double](nOutputs)
    var t = 0
    while (t < trees.length) {
      val p = trees(t).predict(x); var o = 0
      while (o < nOutputs) { acc(o) += p(o); o += 1 }
      t += 1
    }
    var o = 0
    while (o < nOutputs) { acc(o) /= trees.length; o += 1 }
    acc
  }

  def predictAll(xs: IndexedSeq[Array[Double]]): IndexedSeq[Array[Double]] = xs.map(predict)
}

object RandomForest {

  /** The number of trees (sklearn's default, 100) and the seed of the
    * bootstrap draws.
    */
  final case class Params(nTrees: Int = 100, seed: Long = 42L)

  /** Train on `x(i) -> y(i)` with deterministic seeding so CV folds and
    * tests are reproducible.
    */
  def fit(
      x: IndexedSeq[Array[Double]],
      y: IndexedSeq[Array[Double]],
      featureNames: IndexedSeq[String],
      params: Params = Params(),
  ): RandomForest = {
    require(x.nonEmpty && x.length == y.length, s"bad input sizes: ${x.length} vs ${y.length}")
    require(x.head.length == featureNames.length, "featureNames must match feature width")
    // Tree seeds are drawn in order before the fan-out, so the forest is the
    // same whatever the number of cores or the scheduling.
    val rng   = new Random(params.seed)
    val seeds = new Array[Long](params.nTrees)
    var k     = 0
    while (k < seeds.length) { seeds(k) = rng.nextLong(); k += 1 }
    val rows  = new RegressionTree.Rows(x, y)
    val trees = Par.tabulate(params.nTrees) { t =>
      val treeRng = new Random(seeds(t))
      val sample  = new Array[Int](rows.size)
      var i = 0
      while (i < sample.length) { sample(i) = treeRng.nextInt(sample.length); i += 1 }
      RegressionTree.grow(rows, sample)
    }
    RandomForest(trees, featureNames, y.head.length)
  }

  /** Per-feature permutation importance (paper §5.7, [17]).
    *
    * For each feature, shuffle its column `nRepeats` times and measure the
    * increase in mean squared error (summed across outputs) of `model` on
    * `(x, y)` relative to the unpermuted baseline; the importance is the
    * mean increase. `loss` can be overridden (e.g. to an E(n)-style metric).
    */
  def permutationImportance(
      model: RandomForest,
      x: IndexedSeq[Array[Double]],
      y: IndexedSeq[Array[Double]],
      nRepeats: Int = 10,
      seed: Long = 0L,
      loss: (IndexedSeq[Array[Double]], IndexedSeq[Array[Double]]) => Double = mse,
  ): IndexedSeq[Double] = {
    require(x.nonEmpty, "empty importance dataset")
    val rng      = new Random(seed)
    val baseline = loss(model.predictAll(x), y)
    model.featureNames.indices.map { f =>
      val increases = (0 until nRepeats).map { _ =>
        val perm = rng.shuffle(x.indices.toList).toIndexedSeq
        val xPerm = x.indices.map { i =>
          val row = x(i).clone(); row(f) = x(perm(i))(f); row
        }
        loss(model.predictAll(xPerm), y) - baseline
      }
      increases.sum / nRepeats
    }
  }

  /** Mean squared error summed across output dimensions. */
  def mse(pred: IndexedSeq[Array[Double]], actual: IndexedSeq[Array[Double]]): Double = {
    var s = 0.0; var i = 0
    while (i < pred.length) {
      var o = 0
      while (o < pred(i).length) { val d = pred(i)(o) - actual(i)(o); s += d * d; o += 1 }
      i += 1
    }
    s / pred.length
  }
}
