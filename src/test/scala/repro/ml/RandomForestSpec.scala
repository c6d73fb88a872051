package repro.ml

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import java.util.concurrent.{Callable, ForkJoinPool}
import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.Sf100Fixture
import repro.core.{PlanFeaturizer, PpmKind}
import repro.exp.{CrossValidation, WorkloadRunner}
import repro.sim.SparklensEstimator

object RandomForestSpec {

  /** Every split feature, threshold bit pattern and leaf value bit pattern,
    * tree by tree: equal strings mean node-for-node equal forests.
    */
  def structure(rf: RandomForest): String = structure(rf.trees)

  def structure(trees: Seq[RegressionTree.Node]): String = trees.map(tree).mkString("\n")

  /** One tree's splits and leaves, as in [[structure]]. */
  def tree(n: RegressionTree.Node): String = {
    def bits(d: Double) = java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(d))
    n match {
      case RegressionTree.Leaf(v)             => v.map(bits).mkString("L(", ",", ")")
      case RegressionTree.Split(f, thr, l, r) => s"S($f,${bits(thr)},${tree(l)},${tree(r)})"
    }
  }
}

class RandomForestSpec extends AnyFunSuite {
  import RandomForestSpec.structure

  private def syntheticData(n: Int, seed: Long): (IndexedSeq[Array[Double]], IndexedSeq[Array[Double]]) = {
    val r = new Random(seed)
    val x = (0 until n).map(_ => Array(r.nextDouble() * 10, r.nextDouble() * 10, r.nextDouble()))
    val y = x.map(f => Array(2.0 * f(0) + f(1), f(0) - f(1)))
    (x, y)
  }

  /** Data with many equal feature values (including -0.0 and 0.0), where
    * the order ties are visited in decides the floating-point sums.
    */
  private def tiedData(n: Int, seed: Long): (IndexedSeq[Array[Double]], IndexedSeq[Array[Double]]) = {
    val r = new Random(seed)
    val x = (0 until n).map(_ => Array(r.nextDouble() * 10, r.nextInt(6).toDouble, Seq(-1.0, -0.0, 0.0, 1.0)(r.nextInt(4))))
    val y = x.map(f => Array(2.0 * f(0) + f(1) + r.nextGaussian(), f(0) * (f(2) + 2), 0.1 * f(1)))
    (x, y)
  }

  private def sha256(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes(UTF_8)).map(b => f"${b & 0xff}%02x").mkString

  private val tiedNames  = IndexedSeq("a", "b", "c")
  private val tiedParams = RandomForest.Params(nTrees = 24, seed = 9)
  // The forest `tiedData(300, 21)` fits under `tiedParams`, as the sequential
  // fit with the boxed `sortBy` split search built it; it must not change.
  private val PinnedNodes  = 8982
  private val PinnedDigest = "60f13e86b79047553c4269c0ec694487fd154aceb9ca23df92a7bf797b854469"

  test("a forest fitted on one worker thread equals the common-pool forest node for node") {
    val (x, y) = tiedData(300, 21)
    val common = RandomForest.fit(x, y, tiedNames, tiedParams)
    val pool   = new ForkJoinPool(1)
    val single =
      try pool.submit(new Callable[RandomForest] { def call() = RandomForest.fit(x, y, tiedNames, tiedParams) }).get()
      finally pool.shutdown()
    assert(structure(single) == structure(common))
  }

  test("a fixed-seed forest keeps its pinned structure") {
    val (x, y) = tiedData(300, 21)
    val rf = RandomForest.fit(x, y, tiedNames, tiedParams)
    assert(rf.trees.map(_.nodeCount).sum == PinnedNodes)
    assert(sha256(structure(rf)) == PinnedDigest)
  }

  /** The trees [[RandomForest.fit]] grows, grown by the exhaustive split
    * search of [[RegressionTreeSpec.exhaustiveGrow]].
    */
  private def exhaustiveForest(x: IndexedSeq[Array[Double]], y: IndexedSeq[Array[Double]],
                               params: RandomForest.Params): IndexedSeq[RegressionTree.Node] = {
    val rng  = new Random(params.seed)
    val rows = new RegressionTree.Rows(x, y)
    Array.fill(params.nTrees)(rng.nextLong()).toIndexedSeq.map { seed =>
      val treeRng = new Random(seed)
      RegressionTreeSpec.exhaustiveGrow(rows, Array.fill(x.length)(treeRng.nextInt(x.length)))
    }
  }

  test("every seed-7 fixture CV fold of both PPM kinds grows the exhaustive split search's forest") {
    val entries = Sf100Fixture.entries
    val byId    = entries.map(e => e.id -> e).toMap
    val curves  = entries.map(e => e.id -> SparklensEstimator.curve(e.profile, WorkloadRunner.FitGrid)).toMap
    val folds   = CrossValidation.splits(entries.map(_.id), k = 5, repeats = 10, seed = 7)
    assert(folds.size == 50)
    val params = RandomForest.Params()
    for ((repeat, fold, trainIds, _) <- folds; kind <- PpmKind.all) {
      val x  = trainIds.map(byId(_).features)
      val y  = trainIds.map(id => kind.fit(curves(id)).params)
      val rf = RandomForest.fit(x, y, PlanFeaturizer.featureNames, params)
      assert(structure(rf) == structure(exhaustiveForest(x, y, params)), s"repeat $repeat fold $fold ${kind.name}")
    }
  }

  test("fits a smooth function with low error on training data") {
    val (x, y) = syntheticData(200, 1)
    val rf     = RandomForest.fit(x, y, IndexedSeq("a", "b", "noise"), RandomForest.Params(nTrees = 30))
    val mse    = RandomForest.mse(rf.predictAll(x), y)
    assert(mse < 2.0, s"training MSE too high: $mse")
  }

  test("generalizes to held-out points") {
    val (x, y)   = syntheticData(300, 2)
    val (tx, ty) = syntheticData(50, 99)
    val rf  = RandomForest.fit(x, y, IndexedSeq("a", "b", "noise"), RandomForest.Params(nTrees = 50))
    val mse = RandomForest.mse(rf.predictAll(tx), ty)
    assert(mse < 8.0, s"test MSE too high: $mse")
  }

  test("training is deterministic in the seed") {
    val (x, y) = syntheticData(60, 3)
    val names  = IndexedSeq("a", "b", "c")
    val rf1 = RandomForest.fit(x, y, names, RandomForest.Params(nTrees = 10, seed = 7))
    val rf2 = RandomForest.fit(x, y, names, RandomForest.Params(nTrees = 10, seed = 7))
    val probe = Array(5.0, 5.0, 0.5)
    assert(rf1.predict(probe).sameElements(rf2.predict(probe)))
  }

  test("different seeds give different forests") {
    val (x, y) = syntheticData(60, 3)
    val names  = IndexedSeq("a", "b", "c")
    val rf1 = RandomForest.fit(x, y, names, RandomForest.Params(nTrees = 10, seed = 7))
    val rf2 = RandomForest.fit(x, y, names, RandomForest.Params(nTrees = 10, seed = 8))
    val probes = (0 until 20).map(i => Array(i * 0.5, 10 - i * 0.5, 0.1))
    assert(probes.exists(p => !rf1.predict(p).sameElements(rf2.predict(p))))
  }

  test("predict rejects wrong feature width") {
    val (x, y) = syntheticData(20, 4)
    val rf = RandomForest.fit(x, y, IndexedSeq("a", "b", "c"), RandomForest.Params(nTrees = 3))
    intercept[IllegalArgumentException] { rf.predict(Array(1.0)) }
  }

  test("permutation importance ranks informative features above noise") {
    val (x, y) = syntheticData(200, 7)
    val rf  = RandomForest.fit(x, y, IndexedSeq("a", "b", "noise"), RandomForest.Params(nTrees = 30))
    val imp = RandomForest.permutationImportance(rf, x, y, nRepeats = 10, seed = 1)
    assert(imp(0) > imp(2), s"feature a should beat noise: $imp")
    assert(imp(1) > imp(2), s"feature b should beat noise: $imp")
  }

  test("permutation importance of a pure-noise feature is near zero") {
    val (x, y) = syntheticData(200, 8)
    val rf  = RandomForest.fit(x, y, IndexedSeq("a", "b", "noise"), RandomForest.Params(nTrees = 30))
    val imp = RandomForest.permutationImportance(rf, x, y, nRepeats = 10, seed = 2)
    assert(imp(2) < 0.2 * math.max(imp(0), imp(1)))
  }

  test("multi-output predictions average across trees per output") {
    val x = IndexedSeq(Array(0.0), Array(1.0))
    val y = IndexedSeq(Array(0.0, 100.0), Array(10.0, 200.0))
    val rf = RandomForest.fit(x, y, IndexedSeq("f"), RandomForest.Params(nTrees = 50, seed = 3))
    val p  = rf.predict(Array(0.0))
    assert(p.length == 2)
    // Bootstrap means some trees saw only one sample; averages stay in range.
    assert(p(0) >= 0.0 && p(0) <= 10.0)
    assert(p(1) >= 100.0 && p(1) <= 200.0)
  }

  test("empty training set is rejected") {
    intercept[IllegalArgumentException] {
      RandomForest.fit(IndexedSeq.empty, IndexedSeq.empty, IndexedSeq("a"))
    }
  }
}
