package repro.core

import java.nio.file.Files
import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.SparkSpec
import repro.exp.WorkloadRunner
import repro.ml.RandomForest
import repro.tpcds.{Queries, TpcdsLite}

/** End-to-end Catalyst integration: the rule, wired into the shared
  * session by `spark.sql.extensions`, fires during optimization of real
  * queries, scores the cached model in-process and surfaces its executor
  * request.
  */
class AutoExecutorRuleSpec extends SparkSpec {

  private lazy val modelPath = {
    TpcdsLite.registerViews(spark, 0.002)
    // Train a tiny but real parameter model on a few workload queries with
    // synthetic Amdahl curves scaled by plan size.
    val examples = Queries.oneVariantPerTemplate.take(10).map { q =>
      val features = PlanFeaturizer.featurize(spark.sql(q.sql))
      val scale    = 1.0 + features(PlanFeaturizer.featureNames.indexOf("num_operators")) / 5.0
      val curve    = IndexedSeq(1, 2, 4, 8, 16, 32, 48).map(n => n -> (100.0 * scale + 2000.0 * scale / n))
      ParameterModel.TrainingExample(q.id, features, curve)
    }
    val model = ParameterModel.train(PpmKind.Amdahl, examples, rfParams = RandomForest.Params(nTrees = 20))
    val path  = Files.createTempFile("ae-model", ".txt")
    model.save(path)
    path
  }

  private def withRule[A](strategy: String = "elbow")(body: => A): A = {
    // Force the lazy model build BEFORE enabling the rule — building it runs
    // queries through the optimizer, which must not see a half-configured rule.
    val mp = modelPath
    spark.conf.set(AutoExecutorRule.ModelPathKey, mp.toString)
    spark.conf.set(AutoExecutorRule.StrategyKey, strategy)
    spark.conf.set(AutoExecutorRule.EnabledKey, "true")
    try body
    finally spark.conf.set(AutoExecutorRule.EnabledKey, "false")
  }

  private def optimize(sql: String): Unit = spark.sql(sql).queryExecution.optimizedPlan

  private def ruleCount(s: SparkSession): Int =
    s.experimental.extraOptimizations.count(_ == AutoExecutorRule)

  test("the extension registers the rule exactly once per session") {
    modelPath // registers the temp views as a side effect
    (1 to 3).foreach(_ => optimize("SELECT COUNT(*) AS c FROM store_sales"))
    assert(ruleCount(spark) == 1)
    val other = spark.newSession()
    (1 to 3).foreach(_ => other.sql("SELECT 1 AS one").queryExecution.optimizedPlan)
    assert(ruleCount(other) == 1)
  }

  test("the extension decides once per query, on the final plan, with the training features") {
    val strategy = AutoExecutorRule.parseStrategy("slowdown:1.05")
    withRule("slowdown:1.05") {
      val (model, _) = AutoExecutorRule.cachedModel(modelPath)
      Queries.all.foreach { q =>
        DecisionLog.clear()
        val plan = spark.sql(q.sql).queryExecution.optimizedPlan
        val ds   = DecisionLog.all
        assert(ds.size == 1, s"${q.id}: ${ds.size} decisions")
        val features = PlanFeaturizer.featurize(plan)
        assert(ds.head.features.sameElements(features), s"${q.id}: features differ from the final plan's")
        assert(ds.head.requestedExecutors == strategy.select(model.predictPpm(features).curve(1 to 48)), q.id)
        val training = WorkloadRunner.withProfilingConfs(spark)(PlanFeaturizer.featurize(spark.sql(q.sql)))
        assert(ds.head.features.sameElements(training), s"${q.id}: features differ from the training featurization")
      }
    }
  }

  test("the decision log keeps the last Capacity decisions in record order") {
    DecisionLog.clear()
    val n = DecisionLog.Capacity + 5
    (0 until n).foreach { i =>
      DecisionLog.record(Decision(i, 1, AmdahlPpm(1.0, 1.0), Array.emptyDoubleArray, 0.0, 0.0, 0.0))
    }
    assert(DecisionLog.all.map(_.planDigest) == (5 until n))
    assert(DecisionLog.last.map(_.planDigest).contains(n - 1))
    DecisionLog.clear()
    assert(DecisionLog.all.isEmpty && DecisionLog.last.isEmpty)
  }

  test("disabled rule records nothing") {
    modelPath // registers the temp views as a side effect
    spark.conf.set(AutoExecutorRule.EnabledKey, "false")
    DecisionLog.clear()
    optimize("SELECT COUNT(*) AS c FROM store_sales")
    assert(DecisionLog.all.isEmpty)
  }

  test("enabled rule records a decision and sets the request conf") {
    withRule() {
      DecisionLog.clear()
      optimize(Queries.byId("q001").sql)
      val d = DecisionLog.last.getOrElse(fail("no decision recorded"))
      assert(d.requestedExecutors >= 1 && d.requestedExecutors <= 48)
      assert(spark.conf.get(AutoExecutorRule.RequestedExecutorsKey).toInt == d.requestedExecutors)
      val times = spark.conf.get(AutoExecutorRule.PredictedTimesKey).split(",").map(_.toDouble)
      assert(times.toSeq == d.ppm.curve(1 to 48).map(_._2))
    }
  }

  test("elbow strategy on an Amdahl model requests 7 executors (§5.3)") {
    withRule("elbow") {
      DecisionLog.clear()
      optimize(Queries.byId("q005").sql)
      // Analytic property: any s + p/n curve on [1,48] elbows at 7.
      assert(DecisionLog.last.get.requestedExecutors == 7)
    }
  }

  test("slowdown:1.0 strategy on an unsaturated Amdahl model requests 48") {
    withRule("slowdown:1.0") {
      DecisionLog.clear()
      optimize(Queries.byId("q005").sql)
      assert(DecisionLog.last.get.requestedExecutors == 48)
    }
  }

  test("larger H requests fewer executors") {
    val ns = Seq("slowdown:1.05", "slowdown:1.5", "slowdown:3.0").map { s =>
      withRule(s) {
        DecisionLog.clear()
        optimize(Queries.byId("q009").sql)
        DecisionLog.last.get.requestedExecutors
      }
    }
    assert(ns.zip(ns.tail).forall { case (a, b) => b <= a }, ns.toString)
  }

  test("decisions carry per-query overhead timings (§5.6)") {
    withRule() {
      DecisionLog.clear()
      optimize(Queries.byId("q013").sql)
      val d = DecisionLog.last.get
      assert(d.featurizationMs >= 0.0 && d.scoringMs >= 0.0)
    }
  }

  test("model is cached after the first load (§4.4)") {
    AutoExecutorRule.invalidateCache()
    val (_, cold) = AutoExecutorRule.cachedModel(modelPath)
    val (_, warm) = AutoExecutorRule.cachedModel(modelPath)
    assert(cold > 0.0)
    assert(warm == 0.0)
  }

  test("a model trained on the same features in another order is rejected at load") {
    val names = PlanFeaturizer.featureNames
    val order = names.indices.reverse
    val r     = new Random(5)
    val examples = (0 until 20).map { i =>
      val features = Array.fill(names.size)(r.nextDouble())
      ParameterModel.TrainingExample(s"q$i", order.map(features).toArray, IndexedSeq(1 -> 100.0, 48 -> 10.0))
    }
    val model = ParameterModel.train(PpmKind.Amdahl, examples, order.map(names), RandomForest.Params(nTrees = 3))
    val path  = Files.createTempFile("ae-permuted", ".txt")
    model.save(path)
    AutoExecutorRule.invalidateCache()
    val e = intercept[IllegalArgumentException](AutoExecutorRule.cachedModel(path))
    assert(e.getMessage.contains("PlanFeaturizer.featureNames"))
  }

  test("predicted PPM in the decision is monotone") {
    withRule() {
      DecisionLog.clear()
      optimize(Queries.byId("q017").sql)
      val ppm = DecisionLog.last.get.ppm
      (1 until 48).foreach(n => assert(ppm.time(n + 1) <= ppm.time(n) + 1e-9))
    }
  }

  test("the rule leaves the plan unchanged (resource decisions are not rewrites)") {
    val plan = withRule() { spark.sql(Queries.byId("q021").sql).queryExecution.optimizedPlan }
    val out  = withRule() { AutoExecutorRule(plan) }
    assert(out eq plan, "the rule must return the input plan instance untouched")
  }

  test("strategy parsing rejects junk") {
    intercept[IllegalArgumentException] { AutoExecutorRule.parseStrategy("bogus") }
    assert(AutoExecutorRule.parseStrategy("slowdown:1.2") == ConfigSelector.LimitedSlowdown(1.2))
    assert(AutoExecutorRule.parseStrategy("elbow") == ConfigSelector.ElbowPoint)
  }

  test("enabled without a model path fails loudly") {
    spark.conf.set(AutoExecutorRule.EnabledKey, "true")
    spark.conf.unset(AutoExecutorRule.ModelPathKey)
    try {
      val e = intercept[Exception] { optimize("SELECT COUNT(*) AS c FROM store_sales") }
      def causes(t: Throwable): Seq[Throwable] =
        if (t == null) Nil else t +: causes(t.getCause)
      assert(causes(e).exists(_.isInstanceOf[IllegalStateException]))
    } finally {
      spark.conf.set(AutoExecutorRule.EnabledKey, "false")
      spark.conf.set(AutoExecutorRule.ModelPathKey, modelPath.toString)
    }
  }

  test("requested counts vary across queries of different size") {
    // Sanity: with a slowdown strategy, tiny and huge plans should not all
    // collapse to one hard-coded count — the model is actually consulted.
    val picks = withRule("slowdown:1.3") {
      Queries.oneVariantPerTemplate.take(8).map { q =>
        DecisionLog.clear()
        optimize(q.sql)
        DecisionLog.last.get.requestedExecutors
      }
    }
    assert(picks.forall(n => n >= 1 && n <= 48))
  }
}
