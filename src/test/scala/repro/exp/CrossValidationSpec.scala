package repro.exp

import java.nio.file.Files
import java.util.concurrent.{Callable, ForkJoinPool}
import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ParameterModel, PlanFeaturizer, PpmKind}
import repro.ml.RandomForest
import repro.sim.{SparklensEstimator, StageProfile, TaskProfile}
import repro.tpcds.Query

object CrossValidationSpec {

  /** 20 queries with random two-stage profiles and tied integer features. */
  lazy val synthetic: Workload = {
    val r = new Random(4)
    Workload("SYN", 0.0, (1 to 20).map { i =>
      val stages = IndexedSeq(
        StageProfile(0, 0, Nil, IndexedSeq.fill(8 + r.nextInt(90))(5.0 + r.nextDouble() * 50), 0L, 1L << 20),
        StageProfile(1, 0, Seq(0), IndexedSeq.fill(1 + r.nextInt(40))(2.0 + r.nextDouble() * 20), 1L << 20, 0L))
      QueryData(Query(s"q$i", s"t$i", "", Nil), TaskProfile(s"q$i", stages, 0.0, 50.0 + r.nextDouble() * 100),
        Array.fill(PlanFeaturizer.featureNames.size)(r.nextInt(5).toDouble), IndexedSeq.empty, IndexedSeq.empty)
    })
  }

  /** [[synthetic]] with Sparklens series on the paper grid and "actual"
    * times scattered around them.
    */
  lazy val withCurves: Workload = {
    val r = new Random(11)
    synthetic.copy(queries = synthetic.queries.map { q =>
      val s = SparklensEstimator.curve(q.profile, WorkloadRunner.Grid)
      q.copy(actual = s.map { case (n, t) => n -> t * (0.7 + 0.6 * r.nextDouble()) }, sparklens = s)
    })
  }
}

class CrossValidationSpec extends AnyFunSuite {
  import CrossValidationSpec.synthetic

  private val ids = (1 to 20).map(i => s"q$i")

  test("each repeat's folds cover every query exactly once") {
    val sp = CrossValidation.splits(ids, k = 5, repeats = 3, seed = 1)
    assert(sp.size == 15)
    for (r <- 0 until 3) {
      val tests = sp.filter(_._1 == r).flatMap(_._4)
      assert(tests.sorted == ids.sorted)
    }
  }

  test("train and test sets are disjoint and exhaustive") {
    CrossValidation.splits(ids, k = 5, repeats = 2, seed = 2).foreach {
      case (_, _, train, testSet) =>
        assert(train.intersect(testSet).isEmpty)
        assert((train ++ testSet).sorted == ids.sorted)
    }
  }

  test("fold sizes are near-equal (80:20 split for k=5)") {
    CrossValidation.splits(ids, k = 5, repeats = 1, seed = 3).foreach {
      case (_, _, train, testSet) =>
        assert(testSet.size == 4)
        assert(train.size == 16)
    }
  }

  test("splits are deterministic in the seed") {
    val a = CrossValidation.splits(ids, 5, 2, seed = 9)
    val b = CrossValidation.splits(ids, 5, 2, seed = 9)
    assert(a == b)
  }

  test("different repeats shuffle differently") {
    val sp = CrossValidation.splits(ids, 5, 2, seed = 4)
    val r0 = sp.filter(_._1 == 0).map(_._4)
    val r1 = sp.filter(_._1 == 1).map(_._4)
    assert(r0 != r1)
  }

  /** The saved model file: equal text means an identical model. */
  private def bytes(m: ParameterModel): Seq[Byte] = {
    val path = Files.createTempFile("cv-model", ".txt")
    try { m.save(path); Files.readAllBytes(path).toSeq }
    finally Files.delete(path)
  }

  test("trainFolds trains each fold's own models, the same on one worker thread as on the common pool") {
    val params = RandomForest.Params(nTrees = 8)
    def train() = CrossValidation.trainFolds(synthetic, PpmKind.all, k = 5, repeats = 2, seed = 3, rfParams = params)
    val common = train()
    val pool   = new ForkJoinPool(1)
    val single =
      try pool.submit(new Callable[IndexedSeq[CrossValidation.TrainedFold]] { def call() = train() }).get()
      finally pool.shutdown()
    val expectedSplits = CrossValidation.splits(synthetic.queries.map(_.query.id), 5, 2, 3)
    assert(common.map(f => (f.repeat, f.fold, f.trainIds, f.testIds)) == expectedSplits)
    assert(single.map(f => (f.repeat, f.fold, f.trainIds, f.testIds)) == expectedSplits)
    for ((c, s) <- common.zip(single); kind <- PpmKind.all) {
      // Trained directly, one fold and kind at a time.
      val examples = c.trainIds.map { id =>
        val q = synthetic.byId(id)
        ParameterModel.TrainingExample(id, q.features, SparklensEstimator.curve(q.profile, WorkloadRunner.FitGrid))
      }
      val direct = bytes(ParameterModel.train(kind, examples, PlanFeaturizer.featureNames, params))
      assert(bytes(c.models(kind)) == direct, s"repeat ${c.repeat} fold ${c.fold} $kind")
      assert(bytes(s.models(kind)) == direct, s"repeat ${c.repeat} fold ${c.fold} $kind")
    }
  }

  test("a query's label curve is its Sparklens series over FitGrid, derived once") {
    synthetic.queries.foreach { q =>
      val curve = q.labelCurve
      assert(curve == SparklensEstimator.curve(q.profile, WorkloadRunner.FitGrid), q.query.id)
      assert(q.labelCurve eq curve, q.query.id)
    }
  }

  test("Workload.byId finds every query and names the SF label of an unknown id") {
    synthetic.queries.foreach(q => assert(synthetic.byId(q.query.id) eq q))
    val e = intercept[NoSuchElementException](synthetic.byId("q999"))
    assert(e.getMessage.contains("q999") && e.getMessage.contains("SYN"), e.getMessage)
  }

  test("too few queries for k folds is rejected") {
    intercept[IllegalArgumentException] {
      CrossValidation.splits(ids.take(3), k = 5, repeats = 1, seed = 1)
    }
  }
}

class MetricsSpec extends AnyFunSuite {

  test("E(n) is zero for perfect predictions") {
    assert(Metrics.eN(Seq((10.0, 10.0), (20.0, 20.0))) == 0.0)
  }

  test("E(n) is the ratio of summed absolute errors to summed actuals (Eq. 6)") {
    // |12-10| + |18-20| = 4; actuals sum 30 → 4/30.
    assert(math.abs(Metrics.eN(Seq((12.0, 10.0), (18.0, 20.0))) - 4.0 / 30.0) < 1e-12)
  }

  test("E(n) weights long queries more than short ones") {
    // Same relative error, but the long query dominates the sums.
    val e = Metrics.eN(Seq((110.0, 100.0), (1.1, 1.0)))
    assert(math.abs(e - 0.1) < 1e-9)
  }

  test("empty input is rejected") {
    intercept[IllegalArgumentException] { Metrics.eN(Seq.empty) }
  }

  test("mean and stddev basics") {
    assert(Metrics.mean(Seq(1.0, 2.0, 3.0)) == 2.0)
    assert(math.abs(Metrics.stddev(Seq(2.0, 4.0)) - 1.0) < 1e-12)
    assert(Metrics.stddev(Seq(5.0, 5.0)) == 0.0)
  }
}

class TextTableSpec extends AnyFunSuite {
  test("columns align and separators match widths") {
    val t = TextTable.format(Seq("a", "bb"), Seq(Seq("xxx", "y"), Seq("z", "wwww")))
    val lines = t.split("\n")
    assert(lines.length == 4)
    assert(lines.map(_.length).distinct.size == 1, s"ragged table:\n$t")
  }

  test("formatters render as expected") {
    assert(TextTable.pct(0.123) == "12.3%")
    assert(TextTable.num(1.234) == "1.23")
    assert(TextTable.num3(1.2344) == "1.234")
  }
}
